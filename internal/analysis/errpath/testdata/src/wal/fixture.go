// Package wal is the errpath fixture, named to land in the analyzer's
// device-path scope.
package wal

type device struct{}

func (d *device) WriteAt(p []byte, off int64) (int64, error) { return 0, nil }
func (d *device) Sync() error                                { return nil }
func (d *device) Flush() error                               { return nil }
func (d *device) Free(off, length int64) error               { return nil }
func (d *device) Name() string                               { return "dev" }

// Bad: every discard form on a device verb.
func discards(d *device, p []byte) {
	d.Sync()                  // want "error from Sync discarded on device write/sync path"
	_ = d.Flush()             // want "error from Flush discarded on device write/sync path"
	_, _ = d.WriteAt(p, 0)    // want "error from WriteAt discarded on device write/sync path"
	n, _ := d.WriteAt(p, 0)   // want "error from WriteAt discarded on device write/sync path"
	_ = n
	defer d.Sync()            // want "error from Sync discarded on device write/sync path"
	d.Free(0, 10)             // want "error from Free discarded on device write/sync path"
}

// E aliases error: a verb returning the alias still returns an error.
type E = error

type aliasDevice struct{}

func (d *aliasDevice) Sync() E { return nil }

// Bad: the alias hides nothing.
func aliasDiscard(d *aliasDevice) {
	d.Sync() // want "error from Sync discarded on device write/sync path"
}

// Good: errors handled or propagated.
func handled(d *device, p []byte) error {
	if _, err := d.WriteAt(p, 0); err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return err
	}
	return d.Flush()
}

// Good: non-device calls are out of scope even when discarded.
func nonDevice(d *device) {
	_ = d.Name()
}

// Good: the reviewed escape hatch.
func waived(d *device) {
	_ = d.Sync() //sealvet:allow errpath
}
