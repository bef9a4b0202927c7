package sealdb_test

import (
	"bytes"
	"fmt"
	"testing"

	"sealdb"
)

func TestPublicAPIQuickstart(t *testing.T) {
	db, err := sealdb.Open(sealdb.DefaultConfig(sealdb.ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get([]byte("missing")); err != sealdb.ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}

	b := sealdb.NewBatch()
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	kvs, err := db.Scan([]byte("k010"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 5 || string(kvs[0].Key) != "k010" {
		t.Fatalf("scan: %v", kvs)
	}

	amp := db.Amplification()
	if amp.AWA != 1.0 {
		t.Errorf("SEALDB AWA = %v", amp.AWA)
	}
}

func TestPublicAPIReopen(t *testing.T) {
	cfg := sealdb.DefaultConfig(sealdb.ModeSEALDB)
	db, err := sealdb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("persisted"), []byte("yes"))
	dev := db.Device()
	db.Close()

	db2, err := sealdb.OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("persisted"))
	if err != nil || string(v) != "yes" {
		t.Fatalf("recovered read = %q, %v", v, err)
	}
}

func TestAllModesOpen(t *testing.T) {
	for _, mode := range []sealdb.Mode{
		sealdb.ModeLevelDB, sealdb.ModeLevelDBSets, sealdb.ModeSMRDB, sealdb.ModeSEALDB,
	} {
		db, err := sealdb.Open(sealdb.DefaultConfig(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := db.Put([]byte("a"), []byte("b")); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		db.Close()
	}
}

func ExampleOpen() {
	db, err := sealdb.Open(sealdb.DefaultConfig(sealdb.ModeSEALDB))
	if err != nil {
		panic(err)
	}
	defer db.Close()
	db.Put([]byte("greeting"), []byte("hello, shingled world"))
	v, _ := db.Get([]byte("greeting"))
	fmt.Println(string(v))
	// Output: hello, shingled world
}

func TestPublicAPIIteratorBidirectional(t *testing.T) {
	db, err := sealdb.Open(sealdb.DefaultConfig(sealdb.ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("it%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	it := db.NewIterator()
	defer it.Close()
	it.SeekToLast()
	if !it.Valid() || string(it.Key()) != "it0199" {
		t.Fatalf("SeekToLast at %q", it.Key())
	}
	it.Prev()
	if string(it.Key()) != "it0198" {
		t.Fatalf("Prev at %q", it.Key())
	}
	it.Next()
	if string(it.Key()) != "it0199" {
		t.Fatalf("Next-after-Prev at %q", it.Key())
	}
	kvs, err := db.ScanReverse([]byte("it0010"), 3)
	if err != nil || len(kvs) != 3 || string(kvs[0].Key) != "it0010" {
		t.Fatalf("ScanReverse: %v %v", kvs, err)
	}
}

func TestPublicAPIMaintenance(t *testing.T) {
	db, err := sealdb.Open(sealdb.DefaultConfig(sealdb.ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5000; i++ {
		db.Put([]byte(fmt.Sprintf("c%06d", i%2000)), bytes.Repeat([]byte("data"), 64))
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	profile := db.LevelProfile()
	if len(profile) == 0 {
		t.Fatal("no level profile")
	}
	if v, err := db.Get([]byte("c000042")); err != nil || len(v) != 256 {
		t.Fatalf("read after maintenance: %v len=%d", err, len(v))
	}
}

func TestPublicAPIGeometryAndDevice(t *testing.T) {
	g := sealdb.DefaultGeometry()
	if g.SSTableSize != 256*1024 || g.BandSize != 10*g.SSTableSize {
		t.Errorf("default geometry: %+v", g)
	}
	pg := sealdb.PaperGeometry()
	if pg.SSTableSize != 4<<20 || pg.BandSize != 40<<20 || pg.DeviceTimeScale != 1 {
		t.Errorf("paper geometry: %+v", pg)
	}

	// Pre-building a device, then opening on it.
	cfg := sealdb.DefaultConfig(sealdb.ModeSEALDB)
	dev := sealdb.NewDevice(cfg)
	db, err := sealdb.OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	if db.Device() != dev {
		t.Error("DB not bound to the provided device")
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.UserWrites != 1 {
		t.Errorf("stats: %+v", st)
	}
	if db.Mode() != sealdb.ModeSEALDB {
		t.Errorf("mode %v", db.Mode())
	}
	db.Close()
}

func TestPublicAPISnapshotAndSeq(t *testing.T) {
	db, _ := sealdb.Open(sealdb.DefaultConfig(sealdb.ModeSEALDB))
	defer db.Close()
	db.Put([]byte("s"), []byte("1"))
	if db.Seq() == 0 {
		t.Error("sequence not advancing")
	}
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Delete([]byte("s"))
	if v, err := db.GetAt([]byte("s"), snap); err != nil || string(v) != "1" {
		t.Errorf("snapshot read: %q %v", v, err)
	}
	if _, err := db.Get([]byte("s")); err != sealdb.ErrNotFound {
		t.Errorf("latest read after delete: %v", err)
	}
}
