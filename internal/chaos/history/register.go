package history

import (
	"fmt"
	"math"
	"sort"
)

// RegOp is one operation of a real-time history on a key-value store,
// timed on one clock: Invoke just before the call, Response just after
// it returned (nanoseconds from any common origin). Unlike the
// campaign's Op it carries no logical time, so it records genuinely
// overlapping clients — many writers per key included.
type RegOp struct {
	Client int
	Kind   OpKind // KindPut, KindDelete or KindGet
	Key    string
	// Value is what a put wrote, unique per key across the history, or
	// what a get returned; Found is false for a get that found nothing.
	Value            string
	Found            bool
	Invoke, Response int64
}

// CheckLinearizable checks a real-time history against the per-key
// register model: every key is an independent register, a put writes
// its value, a delete writes "absent", and a get must return the value
// of the last write linearized before it. Only completed operations
// belong in the history.
//
// Because every put's value is unique, each get of a value maps to its
// write, and Gibbons and Korach's zone test decides the puts exactly: a
// write and the gets of its value form a cluster whose zone runs from
// the cluster's earliest response to its latest invocation. A zone
// that runs forward (some op of the cluster ended before another began)
// must be linearized as one stretch, so no other cluster may fall wholly
// inside it — "stale" when the intruder is a write nobody read, a
// read-read "inversion" otherwise — and two forward zones may not
// overlap (an inversion too). A get that ended before its value's put
// began is a "future" read, a value never put a "phantom".
//
// A get that found nothing does not say which delete (or the initial
// absence) it read, so it is checked by necessary conditions only: some
// absent-write must have begun before the get ended and not have ended
// before any op of a value known to precede the get began. Its failure
// is reported as "stale".
func CheckLinearizable(ops []RegOp) []Violation {
	byKey := map[string][]*RegOp{}
	for i := range ops {
		byKey[ops[i].Key] = append(byKey[ops[i].Key], &ops[i])
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Violation
	for _, k := range keys {
		out = append(out, checkRegister(byKey[k])...)
	}
	return out
}

// cluster is a write and the gets of its value. lo is the earliest
// response among them, hi the latest invocation: the zone is forward
// when lo < hi.
type cluster struct {
	write  *RegOp
	reads  []*RegOp
	lo, hi int64
	last   *RegOp // the op whose invocation is hi
}

func newCluster(w *RegOp) *cluster {
	return &cluster{write: w, lo: w.Response, hi: w.Invoke, last: w}
}

func (c *cluster) add(r *RegOp) {
	c.reads = append(c.reads, r)
	c.lo = min(c.lo, r.Response)
	if r.Invoke > c.hi {
		c.hi, c.last = r.Invoke, r
	}
}

func (c *cluster) forward() bool { return c.lo < c.hi }

// conflicts reports whether b may not be linearized as a stretch of its
// own beside forward cluster f: b falls wholly inside f's zone
// (backward b) or the two zones overlap (forward b) — one test.
func (f *cluster) conflicts(b *cluster) bool {
	return f.forward() && f.lo < b.hi && b.lo < f.hi
}

func describe(op *RegOp) string {
	switch {
	case op.Kind == KindDelete:
		return fmt.Sprintf("del by client %d over [%d, %d]", op.Client, op.Invoke, op.Response)
	case op.Kind == KindGet && !op.Found:
		return fmt.Sprintf("get by client %d over [%d, %d] finding nothing", op.Client, op.Invoke, op.Response)
	}
	v := op.Value
	if len(v) > 24 {
		v = v[:24] + "..."
	}
	return fmt.Sprintf("%s of %q by client %d over [%d, %d]", op.Kind, v, op.Client, op.Invoke, op.Response)
}

func regViolation(op *RegOp, kind, detail string) Violation {
	return Violation{Round: -1, Tick: -1, Worker: op.Client, Key: op.Key, Kind: kind, Detail: detail}
}

// checkRegister checks one key's operations.
func checkRegister(ops []*RegOp) []Violation {
	var out []Violation
	puts := map[string]*cluster{}
	var clusters []*cluster // puts and deletes; a delete's cluster has no reads
	for _, op := range ops {
		if op.Kind != KindPut && op.Kind != KindDelete {
			continue
		}
		c := newCluster(op)
		if op.Kind == KindPut {
			if puts[op.Value] != nil {
				out = append(out, regViolation(op, "phantom", "value written twice: the history cannot map reads to writes"))
				continue
			}
			puts[op.Value] = c
		}
		clusters = append(clusters, c)
	}
	var absent []*RegOp
	for _, op := range ops {
		if op.Kind != KindGet {
			continue
		}
		if !op.Found {
			absent = append(absent, op)
			continue
		}
		switch c := puts[op.Value]; {
		case c == nil:
			out = append(out, regViolation(op, "phantom", describe(op)+" returned a value never put"))
		case op.Response < c.write.Invoke:
			out = append(out, regViolation(op, "future", describe(op)+" ended before "+describe(c.write)+" began"))
		default:
			c.add(op)
		}
	}

	for i, f := range clusters {
		for j, b := range clusters {
			if i == j || !f.conflicts(b) || b.forward() && j < i {
				continue // a pair of forward zones is reported once
			}
			if len(b.reads) == 0 {
				out = append(out, regViolation(f.last, "stale", fmt.Sprintf(
					"%s: %s came after %s and wholly before it", describe(f.last), describe(b.write), describe(f.write))))
			} else {
				out = append(out, regViolation(f.last, "inversion", fmt.Sprintf(
					"%s and %s cannot both hold: %s was read inside the stretch %s must span",
					describe(f.last), describe(b.last), describe(b.write), describe(f.write))))
			}
		}
	}

	for _, r := range absent {
		if !absentExplained(r, clusters) {
			out = append(out, regViolation(r, "stale", describe(r)+
				": a value was put or read before it began, and no delete can fall between"))
		}
	}
	return out
}

// absentExplained reports whether some absent-write — the initial state
// or a delete — can be the last write before r: it began before r ended,
// and it need not precede any value known to precede r (whose put or a
// get of which ended before r began) — it does when it ended before an
// op of that value began.
func absentExplained(r *RegOp, clusters []*cluster) bool {
	explains := func(end int64) bool {
		for _, c := range clusters {
			if c.write.Kind == KindPut && c.lo < r.Invoke && end < c.hi {
				return false
			}
		}
		return true
	}
	if explains(math.MinInt64) {
		return true
	}
	for _, c := range clusters {
		if d := c.write; d.Kind == KindDelete && d.Invoke < r.Response && explains(d.Response) {
			return true
		}
	}
	return false
}
