// Package sealvet assembles the full SEALDB analyzer suite. The
// cmd/sealvet multichecker and the repo self-check test both consume
// this list, so "what sealvet enforces" has one definition.
package sealvet

import (
	"sealdb/internal/analysis"
	"sealdb/internal/analysis/errpath"
	"sealdb/internal/analysis/extentpair"
	"sealdb/internal/analysis/guardedby"
	"sealdb/internal/analysis/noclock"
	"sealdb/internal/analysis/obsreg"
)

// Analyzers returns the suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errpath.Analyzer,
		extentpair.Analyzer,
		guardedby.Analyzer,
		noclock.Analyzer,
		obsreg.Analyzer,
	}
}
