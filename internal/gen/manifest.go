package gen

import (
	"encoding/gob"
	"fmt"
	"os"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/page"
)

// Manifest is the serializable description of a generated database:
// everything needed to reopen a file-backed device as a working store
// (the device file holds the pages; the manifest holds the catalog,
// the OID map, and the experiment parameters).
type Manifest struct {
	// Parameters echoes the generation config (device omitted).
	NumComplexObjects int
	Levels, Fanout    int
	Fanouts           []int
	Clustering        Clustering
	Sharing           float64
	Seed              int64
	PageSize          int
	RegionPages       int

	FileFirst  uint32
	FileNPages int

	Roots   []uint64
	Entries []ManifestEntry
	RootOf  []RootPair
}

// ManifestEntry records one object's physical address.
type ManifestEntry struct {
	OID  uint64
	Page uint32
	Slot uint16
}

// RootPair records component → complex-object-root ownership.
type RootPair struct {
	OID, Root uint64
}

// SaveManifest writes the database's manifest with encoding/gob.
func (db *Database) SaveManifest(path string) error {
	m := Manifest{
		NumComplexObjects: db.Config.NumComplexObjects,
		Levels:            db.Config.Levels,
		Fanout:            db.Config.Fanout,
		Fanouts:           db.Config.Fanouts,
		Clustering:        db.Config.Clustering,
		Sharing:           db.Config.Sharing,
		Seed:              db.Config.Seed,
		PageSize:          db.Config.PageSize,
		RegionPages:       db.Config.RegionPages,
		FileFirst:         uint32(db.Store.File.First()),
		FileNPages:        db.Store.File.NumPages(),
	}
	for _, r := range db.Roots {
		m.Roots = append(m.Roots, uint64(r))
	}
	// Walk the file to collect the OID map in physical order.
	err := db.Store.File.Scan(func(rid heap.RID, rec []byte) bool {
		oid, err := object.PeekOID(rec)
		if err != nil {
			return true
		}
		m.Entries = append(m.Entries, ManifestEntry{
			OID:  uint64(oid),
			Page: uint32(rid.Page),
			Slot: uint16(rid.Slot),
		})
		return true
	})
	if err != nil {
		return err
	}
	for oid, root := range db.RootOf {
		m.RootOf = append(m.RootOf, RootPair{OID: uint64(oid), Root: uint64(root)})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(&m); err != nil {
		return fmt.Errorf("gen: encode manifest: %w", err)
	}
	return nil
}

// LoadManifest reads and decodes a manifest file. Tools that need only
// the physical parameters (page size, extent) use this without paying
// for a full OpenDatabase.
func LoadManifest(path string) (*Manifest, error) {
	mf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	var m Manifest
	if err := gob.NewDecoder(mf).Decode(&m); err != nil {
		return nil, fmt.Errorf("gen: decode manifest: %w", err)
	}
	return &m, nil
}

// OpenDatabase reopens a database previously generated onto a
// file-backed device and described by a manifest.
func OpenDatabase(devicePath, manifestPath string, bufferPages int) (*Database, error) {
	mp, err := LoadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	dev, err := disk.OpenFile(devicePath, mp.PageSize)
	if err != nil {
		return nil, err
	}
	db, err := OpenDatabaseOn(dev, mp, bufferPages)
	if err != nil {
		dev.Close()
		return nil, err
	}
	return db, nil
}

// checkEntries rejects an OID map that SaveManifest cannot have written
// over a device of numPages pages — a nil OID, an OID listed twice, a
// page that is not on the device (disk.InvalidPage among them) — naming
// the entry. A manifest is a file: it may be stale, cut short or for
// another device.
func checkEntries(entries []ManifestEntry, numPages int) error {
	first := make(map[uint64]int, len(entries)) // OID -> the entry that carries it
	for i, e := range entries {
		if e.OID == uint64(object.NilOID) {
			return fmt.Errorf("gen: manifest entry %d (page %d, slot %d) carries the nil OID", i, e.Page, e.Slot)
		}
		if int64(e.Page) >= int64(numPages) {
			return fmt.Errorf("gen: manifest entry %d (oid %d) is on page %d of a device of %d pages", i, e.OID, e.Page, numPages)
		}
		if j, dup := first[e.OID]; dup {
			return fmt.Errorf("gen: manifest entries %d and %d both carry oid %d", j, i, e.OID)
		}
		first[e.OID] = i
	}
	return nil
}

// OpenDatabaseOn rebuilds a database's catalog, locator, store, and
// template over an already-open device holding its pages — a local
// file, or a pagesvc client whose pages live across the network. The
// device is adopted: the returned Database's Close tears it down. The
// manifest's OID map is checked against the device (checkEntries) before
// any of it is registered.
func OpenDatabaseOn(dev disk.Device, mp *Manifest, bufferPages int) (*Database, error) {
	m := *mp
	if err := checkEntries(m.Entries, dev.NumPages()); err != nil {
		return nil, err
	}
	if bufferPages <= 0 {
		bufferPages = m.FileNPages + 128
	}
	pool := buffer.New(dev, bufferPages)
	file := heap.Open(pool, disk.PageID(m.FileFirst), m.FileNPages)

	cfg := Config{
		NumComplexObjects: m.NumComplexObjects,
		Levels:            m.Levels,
		Fanout:            m.Fanout,
		Fanouts:           m.Fanouts,
		Clustering:        m.Clustering,
		Sharing:           m.Sharing,
		Seed:              m.Seed,
		PageSize:          m.PageSize,
		RegionPages:       m.RegionPages,
	}.withDefaults()

	// Rebuild the catalog exactly as Build defines it.
	positions := positionCount(cfg.Fanouts)
	cat := object.NewCatalog()
	classes := make([]*object.Class, positions)
	for p := 0; p < positions; p++ {
		classes[p] = cat.MustDefine(&object.Class{
			Name:     fmt.Sprintf("T%d", p),
			NumInts:  4,
			NumRefs:  8,
			IntNames: []string{"seq", "rand", "tree", "pos"},
		})
	}
	loc := object.NewMapLocator()
	for _, e := range m.Entries {
		rid := heap.RID{Page: disk.PageID(e.Page), Slot: page.SlotID(e.Slot)}
		if err := loc.Register(object.OID(e.OID), rid); err != nil {
			return nil, err
		}
	}
	store := object.NewStore(file, loc, cat)

	leafStart := firstLeafPosition(cfg.Fanouts)
	tmpl := buildTemplate(cfg, classes, leafStart)

	roots := make([]object.OID, len(m.Roots))
	for i, r := range m.Roots {
		roots[i] = object.OID(r)
	}
	rootOf := make(map[object.OID]object.OID, len(m.RootOf))
	for _, pr := range m.RootOf {
		rootOf[object.OID(pr.OID)] = object.OID(pr.Root)
	}
	var next object.OID
	for _, e := range m.Entries {
		if object.OID(e.OID) >= next {
			next = object.OID(e.OID) + 1
		}
	}
	return &Database{
		Config:         cfg,
		Device:         dev,
		Pool:           pool,
		Store:          store,
		Template:       tmpl,
		Roots:          roots,
		RootOf:         rootOf,
		NodesPerObject: positions,
		Positions:      classes,
		Children:       childPositions(cfg.Fanouts),
		LeafStart:      leafStart,
		NextOID:        next,
		DataPages:      m.FileNPages,
	}, nil
}
