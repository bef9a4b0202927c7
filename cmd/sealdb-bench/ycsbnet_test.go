package main

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"sealdb/internal/ycsb"
)

// flakyStore is an in-memory ycsb.Store that fails from its failAt-th
// call on (counted across every goroutine sharing it); 0 never fails.
// The runner counts a failed Get as a miss, so a lasting failure is
// what guarantees some worker's Put reports it.
type flakyStore struct {
	mu     sync.Mutex
	data   map[string][]byte
	calls  int
	failAt int
}

var errFlaky = errors.New("flaky store: injected failure")

func (s *flakyStore) call() error {
	s.calls++
	if s.failAt > 0 && s.calls >= s.failAt {
		return errFlaky
	}
	return nil
}

func (s *flakyStore) Put(k, v []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.call(); err != nil {
		return err
	}
	s.data[string(k)] = append([]byte(nil), v...)
	return nil
}

func (s *flakyStore) Get(k []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[string(k)], s.call()
}

func (s *flakyStore) ScanN(start []byte, n int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return n, s.call()
}

func TestRunYCSBParallelSplitsEveryOp(t *testing.T) {
	st := &flakyStore{data: map[string][]byte{}}
	// 103 ops over 4 workers: 25 + 25 + 25 + 28.
	n, _, err := runYCSBParallel(ycsb.WorkloadA, 50, 103, 16, 1, 4, st, func() ycsb.Store { return st })
	if err != nil {
		t.Fatal(err)
	}
	if n != 103 {
		t.Errorf("ran %d ops, want all 103", n)
	}
}

func TestRunYCSBParallelReportsWorkerError(t *testing.T) {
	// The 50 load calls succeed; the workers' 20th call and all later fail.
	st := &flakyStore{data: map[string][]byte{}, failAt: 70}
	n, _, err := runYCSBParallel(ycsb.WorkloadA, 50, 200, 16, 1, 4, st, func() ycsb.Store { return st })
	if !errors.Is(err, errFlaky) || !strings.Contains(err.Error(), "worker") {
		t.Fatalf("err = %v, want the failing worker's error", err)
	}
	if n >= 200 {
		t.Errorf("ran %d ops despite a failed worker", n)
	}

	// A failing load is reported too.
	st = &flakyStore{data: map[string][]byte{}, failAt: 10}
	if _, _, err := runYCSBParallel(ycsb.WorkloadA, 50, 200, 16, 1, 4, st, func() ycsb.Store { return st }); !errors.Is(err, errFlaky) {
		t.Fatalf("load err = %v, want the injected failure", err)
	}
}
