// Package alloc is the extentpair fixture: an allocator shaped like
// the storage layer's, with leaking and non-leaking callers.
package alloc

import "errors"

// Extent mirrors the storage/dband extent shape; the analyzer keys
// on the type name.
type Extent struct {
	Off, Len int64
}

type allocator struct{ next int64 }

func (a *allocator) Alloc(size int64) (Extent, error) {
	e := Extent{Off: a.next, Len: size}
	a.next += size
	return e, nil
}

func (a *allocator) Reserve(size int64) (Extent, bool, error) {
	return Extent{Off: a.next, Len: size}, true, nil
}

func (a *allocator) Free(e Extent)   {}
func (a *allocator) Commit(e Extent) {}

type device struct{}

func (d *device) WriteAt(p []byte, off int64) error { return nil }

type table struct{ extent Extent }

// Bad: the extent is written to and then dropped — using it is not
// disposing of it.
func leak(a *allocator, d *device, p []byte) error {
	e, err := a.Alloc(int64(len(p))) // want "extent e from Alloc is never freed, committed, returned, or stored"
	if err != nil {
		return err
	}
	if err := d.WriteAt(p, e.Off); err != nil {
		return errors.New("write failed")
	}
	return nil
}

// Bad: Reserve results carry the same obligation.
func leakReserve(a *allocator) {
	e, ok, err := a.Reserve(64) // want "extent e from Reserve is never freed, committed, returned, or stored"
	if !ok || err != nil {
		return
	}
	_ = e.Off
}

// Bad: an extent discarded into _ can never be freed.
func discarded(a *allocator) error {
	_, err := a.Alloc(64) // want "extent from Alloc is assigned to _ in discarded"
	return err
}

// Bad: a bare call statement drops every result, the extent included.
func dropped(a *allocator) {
	a.Reserve(64) // want "extent from Reserve is dropped in dropped"
}

// Good: freed on the failure path.
func freed(a *allocator, d *device, p []byte) error {
	e, err := a.Alloc(int64(len(p)))
	if err != nil {
		return err
	}
	if err := d.WriteAt(p, e.Off); err != nil {
		a.Free(e)
		return err
	}
	a.Commit(e)
	return nil
}

// Good: returning the extent transfers ownership to the caller.
func transferredByReturn(a *allocator) (Extent, error) {
	e, err := a.Alloc(128)
	if err != nil {
		return Extent{}, err
	}
	return e, nil
}

// Good: storing into longer-lived state transfers ownership.
func transferredByStore(a *allocator, t *table) error {
	e, err := a.Alloc(128)
	if err != nil {
		return err
	}
	t.extent = e
	return nil
}

// Good: a composite literal hand-off (the lsm pattern of wrapping
// the extent into a file record) transfers ownership.
func transferredByLiteral(a *allocator) *table {
	e, _ := a.Alloc(128)
	return &table{extent: e}
}

// Good: the directive documents a hand-off the analyzer cannot see.
func transferredByContract(a *allocator, sink func(int64)) {
	e, _ := a.Alloc(128) //sealvet:transfer
	sink(e.Off)
}
