package fleet

// Test-only exports: code that only this package's tests use lives here,
// out of the build.

// PagesMigrated returns how many pages this migrator has cut over.
func (mg *Migrator) PagesMigrated() int64 { return mg.pagesMigrated.Value() }
