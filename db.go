package cqapprox

import (
	"container/list"
	"fmt"

	"cqapprox/internal/relstr"
)

// Database is an immutable snapshot of a relational database with a
// persistent, shared index cache: the data-side mirror of the query
// side's prepare-once split. Where evaluating a plain *Structure
// re-derives hash indexes on every call, a Database owns them — they
// are built lazily on first use, bounded, safe for concurrent use, and
// shared across every prepared query and every evaluation that binds
// the snapshot. Construct one with Snapshot, or register it under a
// name with Engine.RegisterDB so requests can refer to it without
// re-shipping the data.
//
// Databases are immutable: Update applies a change set in time
// proportional to the change and returns a new snapshot that shares
// every untouched relation, and the rows and warm indexes of every
// touched one.
type Database struct {
	name string
	snap *relstr.Snapshot
}

// Delta is a change set for Database.Update / Engine.UpdateDB: facts
// to delete and facts to insert, per relation. Construct with NewDelta.
type Delta = relstr.Delta

// NewDelta returns an empty change set.
func NewDelta() *Delta { return relstr.NewDelta() }

// SnapshotStats aggregates a Database's index-cache counters; see
// Database.Stats.
type SnapshotStats = relstr.SnapshotStats

// Snapshot freezes s into an immutable Database snapshot. The
// structure is deep-copied: later mutations of s do not affect the
// snapshot.
func Snapshot(s *Structure) *Database {
	return &Database{snap: relstr.NewSnapshot(s)}
}

// Borrow wraps s as a Database without copying it — the form
// PreparedQuery.Eval(ctx, s) uses per call, for a caller who wants to
// Bind one structure once. s must not be mutated while the Database,
// or anything bound to it, is in use; use Snapshot to keep a version.
func Borrow(s *Structure) *Database {
	return &Database{snap: relstr.Borrow(s)}
}

// Name returns the name the snapshot is registered under, or "" for a
// standalone snapshot.
func (d *Database) Name() string { return d.name }

// Version returns the snapshot's process-unique version; Update always
// yields a larger one.
func (d *Database) Version() uint64 { return d.snap.Version() }

// Relations returns the declared relation symbols in sorted order.
func (d *Database) Relations() []string { return d.snap.Relations() }

// Arity returns the arity of relation name, or 0 if undeclared.
func (d *Database) Arity(name string) int { return d.snap.Arity(name) }

// NumFacts returns the total number of tuples across all relations.
func (d *Database) NumFacts() int { return d.snap.NumFacts() }

// Size returns Σ arity·(#tuples), the standard size measure.
func (d *Database) Size() int { return d.snap.Size() }

// Stats returns the snapshot's index-cache counters: views and indexes
// built, cache hits, and how many indexes are currently cached.
// Counters of relations shared with other versions (COW forks)
// accumulate the activity of every sharer.
func (d *Database) Stats() SnapshotStats { return d.snap.Stats() }

// Update forks a new snapshot with delta applied, in time proportional
// to the delta: untouched relations share rows, views and warm indexes
// with d; a touched relation shares d's rows (deleted facts are marked
// dead, inserted ones appended) and extends d's indexes over the new
// rows when a query first probes them. Evaluations of the fork return
// exactly what they return on a fresh snapshot of the same facts. The
// fork carries d's name but is not registered anywhere — use
// Engine.UpdateDB to update a registered database in place.
func (d *Database) Update(delta *Delta) (*Database, error) {
	next, err := d.snap.Update(delta)
	if err != nil {
		return nil, err
	}
	return &Database{name: d.name, snap: next}, nil
}

// Contents returns a mutable deep copy of the snapshot's facts, each
// relation's tuples in the order a structure built by replaying the
// same changes keeps (the snapshot itself stays immutable).
func (d *Database) Contents() *Structure { return d.snap.Contents() }

// --- engine registry ---------------------------------------------------

// DefaultDBCapacity is the database-registry bound of NewEngine unless
// overridden with WithDBCapacity.
const DefaultDBCapacity = 64

// WithDBCapacity bounds the number of registered database snapshots;
// beyond it the least-recently-used registration is evicted. n <= 0
// means unbounded.
func WithDBCapacity(n int) EngineOption {
	return func(e *Engine) { e.maxDBs = n }
}

// dbEntry is the value stored in the registry's LRU list.
type dbEntry struct {
	name string
	db   *Database
}

// RegisterDB snapshots s and registers it under name, replacing any
// previous registration of the same name; replaced reports (atomically
// with the insertion) whether one existed. The returned Database is
// immediately usable (and identical to what Engine.DB returns). The
// registry is LRU-bounded; see WithDBCapacity. The snapshot freeze
// runs before the registry lock is taken, so concurrent registrations
// only contend on the map insertion itself.
func (e *Engine) RegisterDB(name string, s *Structure) (d *Database, replaced bool, err error) {
	if name == "" {
		return nil, false, fmt.Errorf("cqapprox: RegisterDB requires a non-empty name")
	}
	if s == nil {
		return nil, false, fmt.Errorf("cqapprox: RegisterDB requires a database")
	}
	d = &Database{name: name, snap: relstr.NewSnapshot(s)}
	e.dbMu.Lock()
	defer e.dbMu.Unlock()
	e.dbRegistered++
	return d, e.putDBLocked(d), nil
}

// putDBLocked inserts or replaces a registry entry as most recently
// used, evicting beyond capacity, and reports whether an entry of the
// same name was replaced. Callers hold e.dbMu.
func (e *Engine) putDBLocked(d *Database) (replaced bool) {
	if el, ok := e.dbs[d.name]; ok {
		el.Value.(*dbEntry).db = d
		e.dbLRU.MoveToFront(el)
		return true
	}
	e.dbs[d.name] = e.dbLRU.PushFront(&dbEntry{name: d.name, db: d})
	for e.maxDBs > 0 && len(e.dbs) > e.maxDBs {
		back := e.dbLRU.Back()
		e.dbLRU.Remove(back)
		delete(e.dbs, back.Value.(*dbEntry).name)
		e.dbEvictions++
	}
	return false
}

// DB returns the database registered under name, if any. A found entry
// counts as a registry hit and as a use for LRU eviction.
func (e *Engine) DB(name string) (*Database, bool) {
	e.dbMu.Lock()
	defer e.dbMu.Unlock()
	el, ok := e.dbs[name]
	if !ok {
		e.dbMisses++
		return nil, false
	}
	e.dbHits++
	e.dbLRU.MoveToFront(el)
	return el.Value.(*dbEntry).db, true
}

// UpdateDB applies delta copy-on-write to the database registered
// under name and re-registers the new version in its place. Untouched
// relations keep their warm indexes across the update. The previous
// snapshot remains valid for callers still holding it.
func (e *Engine) UpdateDB(name string, delta *Delta) (*Database, error) {
	u, err := e.ApplyDB(name, delta)
	if err != nil {
		return nil, err
	}
	return u.Next, nil
}

// DBUpdate is the atomic before/after pair of one registered-database
// change, as consumed by change notification: the snapshot the delta
// was applied to, the resulting snapshot, and the delta itself (nil
// for wholesale replacements, which carry no change set).
type DBUpdate struct {
	Prev  *Database
	Next  *Database
	Delta *Delta
}

// ApplyDB is UpdateDB exposing the atomic (previous, next, delta)
// triple: both snapshots are read under the registry lock, so the pair
// is exactly one chain link even under concurrent updates of the same
// name — what incremental subscribers need to advance their reduced
// state without a resync.
func (e *Engine) ApplyDB(name string, delta *Delta) (*DBUpdate, error) {
	e.dbMu.Lock()
	defer e.dbMu.Unlock()
	el, ok := e.dbs[name]
	if !ok {
		return nil, fmt.Errorf("cqapprox: no database registered under %q", name)
	}
	// The fork runs under the registry lock, so concurrent UpdateDB
	// calls on one name serialize and neither update is lost. The fork
	// costs the delta, and the registry lock is not
	// the engine's cache lock: prepare traffic proceeds in parallel,
	// as do evaluations against the current snapshot.
	prev := el.Value.(*dbEntry).db
	next, err := prev.Update(delta)
	if err != nil {
		return nil, err
	}
	e.dbUpdates++
	e.putDBLocked(next)
	return &DBUpdate{Prev: prev, Next: next, Delta: delta}, nil
}

// DropDB removes the registration of name, reporting whether it
// existed. Snapshots already handed out remain valid.
func (e *Engine) DropDB(name string) bool {
	e.dbMu.Lock()
	defer e.dbMu.Unlock()
	el, ok := e.dbs[name]
	if !ok {
		return false
	}
	e.dbLRU.Remove(el)
	delete(e.dbs, name)
	return true
}

// DBStats is a snapshot of the engine's database-registry counters,
// including the snapshot index-cache activity aggregated over every
// currently registered database (evicted or dropped registrations
// leave the aggregate, like cache entries do in CacheStats).
type DBStats struct {
	Entries    int    // databases currently registered
	Registered uint64 // RegisterDB calls
	Updates    uint64 // UpdateDB calls that applied
	Hits       uint64 // DB lookups that found the name
	Misses     uint64 // DB lookups that did not
	Evictions  uint64 // registrations evicted by the LRU bound

	Facts         int    // facts across registered databases
	Views         int    // materialised atom views held
	IndexesCached int    // indexes currently cached
	IndexBuilds   uint64 // snapshot indexes built (cached or transient)
	IndexHits     uint64 // probes served by an already-built index
}

// DBStats returns a snapshot of the registry counters.
func (e *Engine) DBStats() DBStats {
	e.dbMu.Lock()
	defer e.dbMu.Unlock()
	st := DBStats{
		Entries:    len(e.dbs),
		Registered: e.dbRegistered,
		Updates:    e.dbUpdates,
		Hits:       e.dbHits,
		Misses:     e.dbMisses,
		Evictions:  e.dbEvictions,
	}
	for el := e.dbLRU.Front(); el != nil; el = el.Next() {
		s := el.Value.(*dbEntry).db.Stats()
		st.Facts += s.Facts
		st.Views += s.Views
		st.IndexesCached += s.IndexesCached
		st.IndexBuilds += s.IndexBuilds
		st.IndexHits += s.IndexHits
	}
	return st
}

// newDBRegistry initialises the registry fields (called by NewEngine).
func (e *Engine) newDBRegistry() {
	e.dbs = map[string]*list.Element{}
	e.dbLRU = list.New()
}
