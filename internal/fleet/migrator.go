package fleet

import (
	"context"
	"fmt"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/shard"
	"revelation/internal/wal"
)

// MigratorConfig tunes a Migrator.
type MigratorConfig struct {
	// Router is the fleet's data plane; Join mutates its membership.
	Router *shard.Router
	// MetaDev backs the migration's ownership log: every cutover is
	// made durable here BEFORE routing flips, so a crash mid-migration
	// recovers by replaying this log. Dedicate a device to it.
	MetaDev disk.Device
	// ChunkPages bounds how many delta pages one cutover record covers;
	// zero means 64. Smaller chunks shorten each fence window; larger
	// ones amortize the meta-log fsync.
	ChunkPages int
	// Registry, when set, receives asm_fleet_pages_migrated_total.
	Registry *metrics.Registry
}

// Migrator performs crash-safe live resharding: Join adds a member to
// the router and walks the rendezvous delta — the ≈1/(N+1) of pages
// the newcomer is owed — in chunks: copy (reads keep flowing through
// the old owner), fence writes, re-copy, log the ownership
// record durably, flip routing, unfence. The sequence never leaves a
// page with zero or two owners: until the cutover record is durable
// the old owner serves, after it the new one does, and recovery after
// a crash replays exactly the durable cutovers.
type Migrator struct {
	cfg  MigratorConfig
	meta *wal.Writer

	pagesMigrated metrics.Counter
}

// NewMigrator opens the ownership log on MetaDev (resuming a prior
// migration's log if one is there) and builds the migrator.
func NewMigrator(cfg MigratorConfig) (*Migrator, error) {
	if cfg.Router == nil {
		return nil, fmt.Errorf("fleet: migrator needs a router")
	}
	if cfg.MetaDev == nil {
		return nil, fmt.Errorf("fleet: migrator needs a meta device for the ownership log")
	}
	if cfg.ChunkPages <= 0 {
		cfg.ChunkPages = 64
	}
	meta, err := wal.Open(cfg.MetaDev)
	if err != nil {
		return nil, fmt.Errorf("fleet: open ownership log: %w", err)
	}
	mg := &Migrator{cfg: cfg, meta: meta}
	if reg := cfg.Registry; reg != nil {
		reg.Attach("asm_fleet_pages_migrated_total", "Pages cut over to a new owner by live resharding.", &mg.pagesMigrated)
	}
	return mg, nil
}

// Close closes the ownership log (not the router).
func (mg *Migrator) Close() error { return mg.meta.Close() }

// Join adds m to the fleet and migrates its rendezvous-owed pages. If
// the ownership log already holds durable cutovers — this process, or
// a predecessor that crashed mid-migration, already flipped some
// ranges — they are replayed against the router first and only the
// remainder is copied, so calling Join again after a crash converges
// to the pure rendezvous assignment of the enlarged member set: after a
// crash the caller rebuilds the router over the pre-join member set
// (the crash lost the in-memory routing table) and calls Join again. It
// returns how many pages were newly cut over by this call.
func (mg *Migrator) Join(m shard.Member) (int, error) {
	delta, err := mg.cfg.Router.AddMember(m)
	if err != nil {
		return 0, err
	}
	return mg.finish(m, delta)
}

// finish replays durable cutovers and migrates the remaining delta.
func (mg *Migrator) finish(m shard.Member, delta []disk.PageID) (int, error) {
	r := mg.cfg.Router
	// Recovery leg: re-apply every ownership record already durable.
	// CutOver is idempotent, so replaying a complete history over a
	// fresh AddMember is exactly a redo pass.
	recs, err := wal.ScanOwnership(mg.cfg.MetaDev)
	if err != nil {
		return 0, fmt.Errorf("fleet: scan ownership log: %w", err)
	}
	for _, rec := range recs {
		r.CutOver(rec.Lo, rec.Hi, rec.Owner)
	}

	// What's left: delta pages still routing to their old owner.
	newIdx := r.MemberIndex(m.Name)
	var rest []disk.PageID
	for _, p := range delta {
		if r.ShardOf(p) != newIdx {
			rest = append(rest, p)
		}
	}

	migrated := 0
	for len(rest) > 0 {
		n := mg.cfg.ChunkPages
		if n > len(rest) {
			n = len(rest)
		}
		chunk := rest[:n]
		rest = rest[n:]
		if err := mg.migrateChunk(chunk, m.Primary, m.Name); err != nil {
			return migrated, err
		}
		migrated += len(chunk)
	}
	return migrated, nil
}

// migrateChunk moves one ascending run of delta pages: copy, fence,
// re-copy under the fence, make the ownership record durable, flip
// routing, and the fence lifts with the flip.
func (mg *Migrator) migrateChunk(chunk []disk.PageID, target disk.Device, owner string) error {
	r := mg.cfg.Router
	lo, hi := chunk[0], chunk[len(chunk)-1]+1
	bufs, errs := make([][]byte, len(chunk)), make([]error, len(chunk))
	for i := range bufs {
		bufs[i] = make([]byte, r.PageSize())
	}
	copyChunk := func() error {
		// The router still routes the chunk to the old owners (pending),
		// so this read is the authoritative image...
		disk.ReadPages(context.Background(), r, chunk, bufs, errs)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("fleet: copy page %d from old owner: %w", chunk[i], err)
			}
		}
		// ...and the write goes DIRECT to the joining member, not
		// through the router (which would bounce it to the old owner).
		disk.WritePages(target, chunk, bufs, errs)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("fleet: install page %d on %s: %w", chunk[i], owner, err)
			}
		}
		return nil
	}

	// Bulk copy with writes still flowing.
	if err := copyChunk(); err != nil {
		return err
	}

	// Fence the chunk (FenceRange waits out in-flight writes) and
	// close the race: a data write may have landed on the old owner
	// during the bulk copy, so copy again — this pass runs with writers
	// fenced, so it cannot be invalidated.
	r.FenceRange(lo, hi)
	if err := copyChunk(); err != nil {
		r.UnfenceRange(lo, hi)
		return err
	}

	// WAL-before-ownership: the record must be durable before routing
	// flips, so a crash after the flip replays it and a crash before
	// the flip leaves the old owner serving — either way one owner.
	if _, err := mg.meta.AppendOwnership(lo, hi, owner); err != nil {
		r.UnfenceRange(lo, hi)
		return fmt.Errorf("fleet: log cutover [%d,%d): %w", lo, hi, err)
	}
	if err := mg.meta.Sync(); err != nil {
		r.UnfenceRange(lo, hi)
		return fmt.Errorf("fleet: sync cutover [%d,%d): %w", lo, hi, err)
	}
	n := r.CutOver(lo, hi, owner)
	mg.pagesMigrated.Add(int64(n))
	return nil
}
