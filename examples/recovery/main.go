// Recovery example: demonstrate the durability chain — WAL, MANIFEST,
// and set records — by writing, "crashing" (closing without any
// graceful flush), and reopening the same device. Acknowledged writes
// survive; the sets and the dynamic-band state reconcile.
package main

import (
	"bytes"
	"fmt"
	"log"

	"sealdb"
)

func main() {
	cfg := sealdb.DefaultConfig(sealdb.ModeSEALDB)

	// First life: load enough to build a real tree, then a few
	// writes that never leave the write-ahead log.
	db, err := sealdb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	val := bytes.Repeat([]byte("."), 512)
	for i := 0; i < 30000; i++ {
		copy(val, fmt.Appendf(nil, "value%06d", i))
		if err := db.Put(fmt.Appendf(nil, "key%06d", i%20000), val); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		db.Put(fmt.Appendf(nil, "wal-only-%d", i), []byte("in the log, not yet in any SSTable"))
	}
	st := db.Stats()
	fmt.Printf("before crash: %d user writes, %d flushes, %d compactions, seq %d\n",
		st.UserWrites, st.FlushCount, st.CompactionCount, db.Seq())

	// The Device object plays the role of the physical drive: it
	// keeps every byte ever written. Close abandons all in-memory
	// state — the memtable contents only exist in the WAL now.
	device := db.Device()
	seqBefore := db.Seq()
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Second life: recovery replays MANIFEST then WAL.
	db2, err := sealdb.OpenDevice(cfg, device)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	fmt.Printf("after recovery: seq %d (was %d)\n", db2.Seq(), seqBefore)

	for i := 0; i < 10; i++ {
		k := fmt.Appendf(nil, "wal-only-%d", i)
		if _, err := db2.Get(k); err != nil {
			log.Fatalf("WAL-only write %s lost: %v", k, err)
		}
	}
	probe := []byte("key015000")
	v, err := db2.Get(probe)
	if err != nil {
		log.Fatalf("compacted write lost: %v", err)
	}
	fmt.Printf("probe %s -> %s... (%d bytes)\n", probe, v[:11], len(v))

	if err := db2.VerifyIntegrity(); err != nil {
		log.Fatalf("integrity after recovery: %v", err)
	}
	sp := db2.SetProfile()
	fmt.Printf("integrity ok; %d sets reconstructed (%d live members, %d invalid)\n",
		sp.LiveSets, sp.LiveMembers, sp.InvalidMembers)
	amp := db2.Amplification()
	fmt.Printf("device never read-modify-wrote: AWA %.3f\n", amp.AWA)
}
