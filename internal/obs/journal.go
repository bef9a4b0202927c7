package obs

import (
	"sync"
)

// Event is one journal entry: an instantaneous record or a completed
// span. Times are whatever clock the journal was built with — the
// engine uses simulated device nanoseconds, so event timelines line
// up with the latency metrics.
type Event struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Type   string `json:"type"`
	// StartNS and EndNS bracket a span; instantaneous events have
	// StartNS == EndNS. Open spans are not visible in Events().
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Fields  map[string]int64 `json:"fields,omitempty"`
}

// Duration returns the span length in clock units.
func (e Event) Duration() int64 { return e.EndNS - e.StartNS }

// Journal is a bounded ring of structured events. When full, the
// oldest events are dropped (counted in Dropped). All methods are
// safe for concurrent use; a nil journal discards everything.
type Journal struct {
	now func() int64

	mu      sync.Mutex
	nextID  uint64
	events  []Event // ring storage
	start   int     // index of the oldest event
	n       int     // live events
	dropped int64
}

// NewJournal creates a journal holding at most capacity events, with
// timestamps drawn from now (nil means "always zero", useful in
// tests). Capacity is clamped to at least 1.
func NewJournal(capacity int, now func() int64) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	if now == nil {
		now = func() int64 { return 0 }
	}
	return &Journal{now: now, events: make([]Event, capacity)}
}

// append adds a finished event to the ring. Caller holds j.mu.
func (j *Journal) append(e Event) {
	if j.n == len(j.events) {
		j.start = (j.start + 1) % len(j.events)
		j.n--
		j.dropped++
	}
	j.events[(j.start+j.n)%len(j.events)] = e
	j.n++
}

// Record journals an instantaneous event and returns its id.
func (j *Journal) Record(typ string, fields map[string]int64) uint64 {
	if j == nil {
		return 0
	}
	t := j.now()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextID++
	j.append(Event{ID: j.nextID, Type: typ, StartNS: t, EndNS: t, Fields: fields})
	return j.nextID
}

// Span is an in-flight event started by Begin. It is not visible in
// the journal until End is called. End is idempotent: the first call
// journals the span, later calls are no-ops, so a deferred End can
// coexist with an explicit early End on the happy path.
type Span struct {
	j     *Journal
	ended bool
	ev    Event
}

// Begin opens a span. parent (0 for none) links a nested span to the
// span it runs inside. The returned span is owned by one goroutine; call
// End exactly once.
func (j *Journal) Begin(typ string, parent uint64) *Span {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	j.nextID++
	id := j.nextID
	j.mu.Unlock()
	return &Span{j: j, ev: Event{ID: id, Parent: parent, Type: typ, StartNS: j.now()}}
}

// ID returns the span's event id (0 on a nil span), usable as the
// parent of nested spans.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.ev.ID
}

// Set attaches a field to the span.
func (s *Span) Set(key string, v int64) {
	if s == nil {
		return
	}
	if s.ev.Fields == nil {
		s.ev.Fields = map[string]int64{}
	}
	s.ev.Fields[key] = v
}

// End closes the span and journals it. Only the first call has any
// effect; a span is journaled at most once. A span is owned by one
// goroutine, so the ended flag needs no lock.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.ev.EndNS = s.j.now()
	s.j.mu.Lock()
	s.j.append(s.ev)
	s.j.mu.Unlock()
}

// RecordSpan journals a completed span after the fact — start and end
// stamps supplied by the caller rather than drawn from the journal
// clock — and returns its id. The tracer uses this to emit a whole
// span tree in one shot once an operation is known to be sampled or
// slow, without paying Begin/End bookkeeping on every operation.
func (j *Journal) RecordSpan(typ string, parent uint64, startNS, endNS int64, fields map[string]int64) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextID++
	j.append(Event{ID: j.nextID, Parent: parent, Type: typ, StartNS: startNS, EndNS: endNS, Fields: fields})
	return j.nextID
}

// Events returns the journaled events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.events[(j.start+i)%len(j.events)]
	}
	return out
}

// SpanNode is one event in a reassembled span tree.
type SpanNode struct {
	Event
	// ParentDropped marks a node whose parent id is nonzero but whose
	// parent event is not in the snapshot — evicted by the ring bound
	// (or journaled after the snapshot was taken). Such nodes are
	// surfaced as roots rather than silently orphaned.
	ParentDropped bool        `json:"parent_dropped,omitempty"`
	Children      []*SpanNode `json:"children,omitempty"`
}

// SpanTrees reassembles a flat event snapshot (as returned by Events)
// into parent-linked trees, oldest root first. Every event appears in
// exactly one tree: events with parent 0 are roots, events whose
// parent is present become children, and events whose parent was
// dropped from the ring become roots with ParentDropped set.
func SpanTrees(events []Event) []*SpanNode {
	nodes := make(map[uint64]*SpanNode, len(events))
	order := make([]*SpanNode, 0, len(events))
	for _, e := range events {
		n := &SpanNode{Event: e}
		nodes[e.ID] = n
		order = append(order, n)
	}
	var roots []*SpanNode
	for _, n := range order {
		if n.Parent == 0 {
			roots = append(roots, n)
			continue
		}
		if p, ok := nodes[n.Parent]; ok {
			p.Children = append(p.Children, n)
		} else {
			n.ParentDropped = true
			roots = append(roots, n)
		}
	}
	return roots
}

// Dropped returns how many events were evicted by the ring bound.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}
