package wal

// Test-only exports: code that only this package's tests use lives here,
// out of the build.

// AppendedLSN returns the newest LSN handed out by Append.
func (w *Writer) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendedLSN
}
