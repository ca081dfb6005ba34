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

// RunReader is implemented by devices that can read a run — several
// pages, in the order one arm should visit them — as one operation: a
// page-service client puts the run in one frame, a shard router hands it
// whole to the member that owns it. ids, bufs and errs have one length;
// page ids[i] arrives in bufs[i] and errs[i] says how that page's read
// ended, so part of a run can fail. The slices are the caller's and are
// not kept.
type RunReader interface {
	ReadPages(ctx context.Context, ids []PageID, bufs [][]byte, errs []error)
}

// ReadPages reads the run ids through dev: in one operation when the
// device is a RunReader and the run has more than one page, otherwise
// page by page, in the run's order, exactly as that many ReadPageCtx
// calls.
func ReadPages(ctx context.Context, dev Device, ids []PageID, bufs [][]byte, errs []error) {
	if rr, ok := dev.(RunReader); ok && len(ids) > 1 {
		if ctx == nil {
			ctx = context.Background() // no span, as ReadPage
		}
		rr.ReadPages(ctx, ids, bufs, errs)
		return
	}
	for i, p := range ids {
		errs[i] = ReadPageCtx(ctx, dev, p, bufs[i])
	}
}
