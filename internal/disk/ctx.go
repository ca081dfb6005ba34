package disk

import "context"

// CtxReader is implemented by devices that can attribute a physical
// read to the per-query span carried in a context (see
// internal/qtrace). The attribution happens inside the device's own
// mutex, where the seek distance is computed, so per-query seek
// accounting is exact even when queries interleave on one device.
type CtxReader interface {
	ReadPageCtx(ctx context.Context, p PageID, buf []byte) error
}

// ReadPageCtx reads page p through dev, attributing the read to the
// query span in ctx when the device supports it. With a nil context —
// or a device without ctx support — it is exactly ReadPage.
func ReadPageCtx(ctx context.Context, dev Device, p PageID, buf []byte) error {
	if ctx != nil {
		if cr, ok := dev.(CtxReader); ok {
			return cr.ReadPageCtx(ctx, p, buf)
		}
	}
	return dev.ReadPage(p, buf)
}
