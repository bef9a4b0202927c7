// Layout example: reproduce the contrast between Figure 2 (LevelDB:
// each compaction's SSTables scatter across the disk) and Figure 11
// (SEALDB: each compaction writes one contiguous set) from where each
// compaction's output SSTables landed during a random load, rendered
// as a coarse ASCII scatter of compaction number vs device offset.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sealdb"
)

const (
	records   = 15000
	valueSize = 1024
	plotCols  = 72
	plotRows  = 16
)

func main() {
	for _, mode := range []sealdb.Mode{sealdb.ModeLevelDB, sealdb.ModeSEALDB} {
		trace(mode)
	}
}

func trace(mode sealdb.Mode) {
	db, err := sealdb.Open(sealdb.DefaultConfig(mode))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(records)
	val := make([]byte, valueSize)
	for _, i := range perm {
		rng.Read(val)
		if err := db.Put(fmt.Appendf(nil, "user%09d", i), val); err != nil {
			log.Fatal(err)
		}
	}

	// Collect where every merge compaction placed its outputs.
	type pt struct{ comp, off int64 }
	var pts []pt
	var maxComp, maxOff int64
	for _, ci := range db.Stats().Compactions {
		if ci.Flush || ci.TrivialMove {
			continue
		}
		for _, ext := range ci.OutputPlacements {
			pts = append(pts, pt{int64(ci.ID), ext.Off})
			if ext.Off > maxOff {
				maxOff = ext.Off
			}
		}
		maxComp = int64(ci.ID)
	}
	fmt.Printf("\n=== %s: %d SSTables written by %d compactions, offsets up to %.1f MiB ===\n",
		mode, len(pts), maxComp, float64(maxOff)/(1<<20))

	// ASCII scatter: x = compaction order, y = disk offset.
	grid := make([][]byte, plotRows)
	for r := range grid {
		grid[r] = make([]byte, plotCols)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for _, p := range pts {
		c := int(p.comp * (plotCols - 1) / maxComp)
		r := int(p.off * (plotRows - 1) / (maxOff + 1))
		grid[plotRows-1-r][c] = '*'
	}
	fmt.Printf("offset\n")
	for _, row := range grid {
		fmt.Printf("  |%s|\n", row)
	}
	fmt.Printf("  +%s+  -> compaction order\n", dashes(plotCols))
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
