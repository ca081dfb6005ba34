package gen

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/object"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	devPath := filepath.Join(dir, "db.pages")
	manPath := filepath.Join(dir, "db.manifest")

	dev, err := disk.OpenFile(devPath, disk.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Build(Config{
		NumComplexObjects: 150,
		Clustering:        InterObject,
		Sharing:           0.25,
		Seed:              77,
		Device:            dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveManifest(manPath); err != nil {
		t.Fatal(err)
	}
	wantLoc := db.Store.Locator.Len()
	// Remember a few ground truths before closing.
	root0 := db.Roots[0]
	rootObj, err := db.Store.Get(root0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDatabase(devPath, manPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Device.Close()

	if re.Config.NumComplexObjects != 150 || re.Config.Clustering != InterObject || re.Config.Sharing != 0.25 {
		t.Errorf("config lost: %+v", re.Config)
	}
	if len(re.Roots) != 150 || re.Roots[0] != root0 {
		t.Errorf("roots lost")
	}
	if n := re.Store.Locator.Len(); n != wantLoc {
		t.Errorf("locator has %d entries, want %d", n, wantLoc)
	}
	got, err := re.Store.Get(root0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rootObj.Refs {
		if got.Refs[i] != rootObj.Refs[i] {
			t.Fatalf("reopened object differs at ref %d", i)
		}
	}
	if re.Template.Nodes() != 7 {
		t.Errorf("template not rebuilt: %d nodes", re.Template.Nodes())
	}
	leaf := re.Template.Children[0].Children[0]
	if !leaf.Shared || leaf.SharingDegree != 0.25 {
		t.Errorf("sharing annotation lost: %+v", leaf)
	}
	if re.RootOf[rootObj.Refs[0]] != root0 {
		t.Errorf("RootOf mapping lost")
	}
	// The reopened store must support a full traversal of every tree.
	for _, root := range re.Roots {
		var walk func(oid object.OID, depth int)
		walk = func(oid object.OID, depth int) {
			o, err := re.Store.Get(oid)
			if err != nil {
				t.Fatalf("traverse %v: %v", oid, err)
			}
			if depth < 3 {
				walk(o.Refs[0], depth+1)
				walk(o.Refs[1], depth+1)
			}
		}
		walk(root, 1)
	}
}

// TestManifestInMemoryMatchesRoundTrip: a database reopened over its
// in-memory Manifest is the one reopened over the same manifest saved
// and loaded — the configuration, roots, ownership map, shape, template
// and every object's address and fields.
func TestManifestInMemoryMatchesRoundTrip(t *testing.T) {
	dev := disk.New(0)
	db, err := Build(Config{NumComplexObjects: 120, Clustering: InterObject, Sharing: 0.25, Seed: 78, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mp, err := db.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.manifest")
	if err := db.SaveManifest(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := OpenDatabaseOn(dev, mp, 0)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := OpenDatabaseOn(dev, loaded, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what       string
		mem, saved any
	}{
		{"config", mem.Config, saved.Config},
		{"roots", mem.Roots, saved.Roots},
		{"root map", mem.RootOf, saved.RootOf},
		{"components", mem.NodesPerObject, saved.NodesPerObject},
		{"children", mem.Children, saved.Children},
		{"first leaf", mem.LeafStart, saved.LeafStart},
		{"next OID", mem.NextOID, saved.NextOID},
		{"data pages", mem.DataPages, saved.DataPages},
		{"template", mem.Template.String(), saved.Template.String()},
		{"locator entries", mem.Store.Locator.Len(), saved.Store.Locator.Len()},
	} {
		if !reflect.DeepEqual(c.mem, c.saved) {
			t.Errorf("%s: in memory %v, saved and loaded %v", c.what, c.mem, c.saved)
		}
	}
	for _, e := range mp.Entries {
		oid := object.OID(e.OID)
		memRID, _, err1 := mem.Store.Locator.Lookup(oid)
		savedRID, _, err2 := saved.Store.Locator.Lookup(oid)
		if memRID != savedRID || err1 != nil || err2 != nil {
			t.Fatalf("%v at %v (%v) in memory, %v (%v) saved and loaded", oid, memRID, err1, savedRID, err2)
		}
		a, err1 := mem.Store.Get(oid)
		b, err2 := saved.Store.Get(oid)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: %+v (%v) in memory, %+v (%v) saved and loaded", oid, a, err1, b, err2)
		}
	}
}

func TestOpenDatabaseMissingFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDatabase(filepath.Join(dir, "nope.pages"), filepath.Join(dir, "nope.manifest"), 0); err == nil {
		t.Error("missing files accepted")
	}
}

// TestOpenDatabaseRejectsBadEntries: a manifest whose OID map names the
// nil OID, one OID twice, or a page that is not on the device is refused
// with an error that names the entry, and the manifest it was made from
// is accepted.
func TestOpenDatabaseRejectsBadEntries(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(t.TempDir(), "db.manifest")
	if err := db.SaveManifest(manPath); err != nil {
		t.Fatal(err)
	}
	good, err := LoadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	pages := uint32(db.Device.NumPages())
	cases := []struct {
		name  string
		spoil func(e []ManifestEntry)
		want  string // in the error; "" for a manifest that must open
	}{
		{"as saved", func(e []ManifestEntry) {}, ""},
		{"last page of the device", func(e []ManifestEntry) { e[4].Page = pages - 1 }, ""},
		{"nil OID", func(e []ManifestEntry) { e[3].OID = 0 }, "entry 3 "},
		{"duplicate OID", func(e []ManifestEntry) { e[9].OID = e[2].OID }, "entries 2 and 9 "},
		{"first page past the device", func(e []ManifestEntry) { e[5].Page = pages }, "entry 5 "},
		{"invalid page", func(e []ManifestEntry) { e[7].Page = uint32(disk.InvalidPage) }, "entry 7 "},
		{"the first fault is named", func(e []ManifestEntry) { e[6].Page = pages + 40; e[8].OID = 0 }, "entry 6 "},
	}
	for _, c := range cases {
		m := *good
		m.Entries = append([]ManifestEntry(nil), good.Entries...)
		c.spoil(m.Entries)
		_, err := OpenDatabaseOn(db.Device, &m, 0)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// TestOpenDatabaseRejectsBadManifest: a manifest whose heap extent is
// not on the device, whose entry names a device page outside the
// extent, or whose root no entry carries is refused with the named
// error; the manifest as saved opens over the same device.
func TestOpenDatabaseRejectsBadManifest(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(t.TempDir(), "db.manifest")
	if err := db.SaveManifest(manPath); err != nil {
		t.Fatal(err)
	}
	good, err := LoadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	// Two device pages past the extent: on the device, in no extent.
	past, err := db.Device.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	pages := db.Device.NumPages()
	cases := []struct {
		name  string
		spoil func(m *Manifest)
		want  error // nil for a manifest that must open
	}{
		{"as saved", func(m *Manifest) {}, nil},
		{"extent past the device", func(m *Manifest) { m.FileNPages = pages + 1 }, ErrExtentOffDevice},
		{"extent starts past the device", func(m *Manifest) { m.FileFirst = uint32(pages) }, ErrExtentOffDevice},
		{"empty extent", func(m *Manifest) { m.FileNPages = 0 }, ErrExtentOffDevice},
		{"entry on the device past the extent", func(m *Manifest) { m.Entries[4].Page = uint32(past) }, ErrEntryOffExtent},
		{"root with no entry", func(m *Manifest) { m.Roots[2] = uint64(db.NextOID) + 100 }, ErrRootNotEntry},
	}
	for _, c := range cases {
		m := *good
		m.Entries = append([]ManifestEntry(nil), good.Entries...)
		m.Roots = append([]uint64(nil), good.Roots...)
		c.spoil(&m)
		_, err := OpenDatabaseOn(db.Device, &m, 0)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}
