package fleet

import (
	"bytes"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/shard"
)

// racingJoiner is a joining member's device that, right after the bulk
// pass installs its first page, writes fresh bytes to that page through
// the router, as a client whose write races the copy would. The page is
// still pending, so the write lands on the old owner; only the re-copy
// under the fence carries it to the joiner.
type racingJoiner struct {
	disk.Device
	router *shard.Router
	fresh  []byte

	raced    bool
	page     disk.PageID
	routedTo int   // the shard the racing write was routed to
	err      error // the racing write's
}

func (d *racingJoiner) WritePage(p disk.PageID, buf []byte) error {
	if err := d.Device.WritePage(p, buf); err != nil {
		return err
	}
	if !d.raced {
		d.raced, d.page = true, p
		d.routedTo = d.router.ShardOf(p)
		d.err = d.router.WritePage(p, d.fresh)
	}
	return nil
}

// TestMigratorRecopiesUnderFence: a write that lands on the old owner
// while the bulk pass copies its chunk must survive the cutover. The
// migrator's second copy, made with the chunk fenced, is what carries
// it; without that copy the joiner keeps the image the bulk pass read
// and the write is lost.
func TestMigratorRecopiesUnderFence(t *testing.T) {
	r, _ := buildSweepFleet(t)
	defer r.Close()
	fresh := bytes.Repeat([]byte{0xA5}, r.PageSize())
	joiner := &racingJoiner{Device: disk.New(sweepPages), router: r, fresh: fresh}

	n, err := runMigration(t, r, disk.New(0), joiner)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if n == 0 || !joiner.raced {
		t.Fatalf("degenerate: %d pages migrated, raced %v", n, joiner.raced)
	}
	if joiner.err != nil {
		t.Fatalf("racing write to page %d: %v", joiner.page, joiner.err)
	}
	joinerIdx := r.MemberIndex(sweepJoiner)
	if joiner.routedTo == joinerIdx {
		t.Fatalf("racing write to page %d was routed to the joiner, not the old owner", joiner.page)
	}
	if got := r.ShardOf(joiner.page); got != joinerIdx {
		t.Fatalf("page %d routes to shard %d after the join, want the joiner (%d)", joiner.page, got, joinerIdx)
	}
	buf := make([]byte, r.PageSize())
	if err := r.ReadPage(joiner.page, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatalf("page %d lost the write that raced its copy", joiner.page)
	}
}
