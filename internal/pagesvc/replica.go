package pagesvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/wal"
)

// ReplicaConfig tunes a Replica.
type ReplicaConfig struct {
	// Primary is the address of the primary page service whose WAL
	// device the replica follows.
	Primary string
	// WALDev is the primary's wire index for its WAL device.
	WALDev byte
	// DialTimeout bounds each (re)connection attempt; zero means 2s.
	DialTimeout time.Duration
	// Retry paces reconnection after the follow stream breaks. The
	// zero policy means disk.DefaultRetryPolicy's backoff, retried
	// forever — a follower's job is to keep trying.
	Retry disk.RetryPolicy
	// JitterSeed seeds the full jitter on the reconnect backoff (see
	// ClientConfig.JitterSeed): zero derives a per-replica seed from
	// the primary address, an explicit value makes the delay sequence
	// reproducible.
	JitterSeed int64
	// Registry, when set, receives asm_replica_* counters.
	Registry *metrics.Registry
}

// Replica keeps a local copy of the primary's data device current by
// following its WAL: every shipped record goes through the same
// redo-if-newer apply as crash recovery, so catch-up after a base
// backup, reconnection after a network cut, and restart after a crash
// are one code path. The applied LSN is tracked for two consumers:
// Follow resumption (reconnects ask only for records past it) and the
// client's failover staleness guard (published via Server Info).
type Replica struct {
	dev    disk.Device
	cfg    ReplicaConfig
	jitter *disk.Jitter

	applied atomic.Uint64

	mu     sync.Mutex
	conn   net.Conn
	closed bool
	done   chan struct{}

	records    metrics.Counter // WAL records applied
	reapplied  metrics.Counter // records skipped as already applied
	reconnects metrics.Counter // follow stream re-establishments
	appliedLSN metrics.Gauge
}

// NewReplica builds a replica applying onto dev. The device should be
// seeded from a base backup of the primary's data pages; an empty
// device also works, it just replays the entire log.
func NewReplica(dev disk.Device, cfg ReplicaConfig) *Replica {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = disk.RetryPolicy{
			MaxAttempts: 1 << 30, // effectively forever
			BaseBackoff: disk.DefaultRetryPolicy.BaseBackoff,
			MaxBackoff:  disk.DefaultRetryPolicy.MaxBackoff,
		}
	}
	r := &Replica{
		dev:    dev,
		cfg:    cfg,
		jitter: disk.NewJitter(jitterSeed(cfg.JitterSeed, cfg.Primary)),
		done:   make(chan struct{}),
	}
	if reg := cfg.Registry; reg != nil {
		reg.Attach("asm_replica_records_total", "WAL records applied from the primary.", &r.records)
		reg.Attach("asm_replica_reapplied_total", "Shipped records already applied (reconnect overlap).", &r.reapplied)
		reg.Attach("asm_replica_reconnects_total", "Follow stream re-establishments.", &r.reconnects)
		reg.Attach("asm_replica_applied_lsn", "LSN of the last applied WAL record.", &r.appliedLSN)
	}
	return r
}

// AppliedLSN returns the LSN of the last applied record — hand it to
// ServerConfig.AppliedLSN so clients can judge this replica's
// freshness.
func (r *Replica) AppliedLSN() uint64 { return r.applied.Load() }

// SetAppliedLSN primes the applied-LSN watermark, e.g. after seeding
// the device from a base backup taken at a known LSN. Without it the
// first Follow replays the whole log — correct (apply is idempotent)
// but slower.
func (r *Replica) SetAppliedLSN(lsn uint64) {
	r.applied.Store(lsn)
	r.appliedLSN.Set(int64(lsn))
}

// Run follows the primary until Close: it connects, streams records,
// applies them, and on any stream failure reconnects from the applied
// LSN under the retry policy's backoff. It returns nil on Close, or
// the last error once the retry budget is exhausted.
func (r *Replica) Run() error {
	attempt := 0
	for {
		if r.isClosed() {
			return nil
		}
		err := r.followOnce()
		if r.isClosed() {
			return nil
		}
		if errors.Is(err, wal.ErrDeltaGap) {
			// Following again would ship the same delta onto the same
			// page: the device needs a base backup, not a retry.
			return fmt.Errorf("pagesvc: replica: %w", err)
		}
		attempt++
		if attempt >= r.cfg.Retry.MaxAttempts {
			return fmt.Errorf("pagesvc: replica: follow retries exhausted: %w", err)
		}
		// Full jitter on the reconnect pacing: a fleet of followers cut
		// by one network event spreads its re-dials instead of storming
		// the primary in lockstep.
		select {
		case <-r.done:
			return nil
		case <-time.After(r.jitter.Backoff(r.cfg.Retry, attempt)):
		}
		r.reconnects.Inc()
	}
}

// Start runs the replica in the background; the returned channel
// yields Run's result once.
func (r *Replica) Start() <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- r.Run() }()
	return ch
}

// Close stops the follow loop and severs the stream.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.done)
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	return nil
}

func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// followOnce dials the primary, requests the stream from the applied
// LSN, and applies records until the stream breaks.
func (r *Replica) followOnce() error {
	nc, err := net.DialTimeout("tcp", r.cfg.Primary, r.cfg.DialTimeout)
	if err != nil {
		return netErr("replica dial "+r.cfg.Primary, err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		nc.Close()
		return nil
	}
	r.conn = nc
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		if r.conn == nc {
			r.conn = nil
		}
		r.mu.Unlock()
		nc.Close()
	}()

	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], r.applied.Load())
	req := request{op: opFollow, dev: r.cfg.WALDev, reqID: 1, body: body[:]}
	if _, err := nc.Write(appendRequest(nil, req)); err != nil {
		return netErr("replica follow", err)
	}
	buf := make([]byte, r.dev.PageSize())
	fr := newFrameReader(nc)
	for {
		payload, err := fr.next()
		if err != nil {
			return netErr("replica stream", err)
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			return err
		}
		var rec wal.Record
		switch resp.status {
		case stStream:
			rec.LSN, rec.Page, rec.Img, err = decodeStreamRecord(resp.body)
		case stDelta:
			rec, err = decodeDeltaRecord(resp.body)
		case stErr:
			return decodeErr(resp.body)
		default:
			return fmt.Errorf("%w: status %d on follow stream", ErrBadFrame, resp.status)
		}
		if err != nil {
			return err
		}
		if err := r.apply(rec, buf); err != nil {
			return err
		}
	}
}

// apply installs one shipped record. Records at or below the applied
// watermark — a reconnect overlap, or a record whose page image the
// base backup already carried — count as reapplied no-ops, which is
// exactly what makes crashing mid-Follow and resuming safe. A delta gap
// leaves the watermark alone. rec may alias the stream's buffer: the
// device copies what it writes.
func (r *Replica) apply(rec wal.Record, buf []byte) error {
	if rec.Kind == wal.RecPage && len(rec.Img) == 0 {
		// A watermark-only record (an ownership/cutover record on the
		// primary's log): nothing to install, but the applied LSN must
		// advance past it.
		r.advance(rec.LSN)
		return nil
	}
	applied, err := wal.ApplyRecord(r.dev, rec, buf)
	if err != nil {
		return err
	}
	if applied {
		r.records.Inc()
	} else {
		r.reapplied.Inc()
	}
	r.advance(rec.LSN)
	return nil
}

// advance moves the applied watermark up to lsn.
func (r *Replica) advance(lsn uint64) {
	if lsn > r.applied.Load() {
		r.applied.Store(lsn)
		r.appliedLSN.Set(int64(lsn))
	}
}
