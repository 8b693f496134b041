// Package xmldb is a persistent, sharded, REST-accessible XML document
// store — the stand-in for the MarkLogic XMLDB behind the paper's
// Elsevier Reference 2.0 application (§6.1). It offers both endpoint
// granularities that §6.1 contrasts — per-query access (the original
// architecture) and whole-document access ("adjusted so that they serve
// whole documents rather than individual queries … to better enable
// caching") — on top of a storage engine with:
//
//   - Hierarchical collections: document URIs beginning with "/" live
//     in eXist-style nested collections ("/db/articles/a1.xml" is in
//     "/db/articles"); legacy flat URIs live in the root collection.
//   - Sharding: documents are partitioned across N sub-stores by a
//     consistent hash of the URI, so collection scans fan out across
//     shards and merge back in URI order.
//   - MVCC: commits publish immutable document revisions; readers and
//     collection scans see consistent point-in-time state without
//     blocking writers, and concurrent updates to one document resolve
//     first-committer-wins (the loser gets ErrConflict).
//   - Durability: an append-only redo log (package wal — the redo dual
//     of the update package's undo log) plus full-state snapshots.
//     Crash recovery loads the newest snapshot and replays the log
//     tail, then re-checkpoints.
//
// Open(dir) gives the persistent store; Open("") an ephemeral one with
// the same semantics minus the disk. The public facade (package xqib,
// repo root) re-exports the store behind xqib.OpenStore.
package xmldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultpoint"
	"repro/internal/markup"
	"repro/internal/xmldb/wal"
	"repro/internal/xquery"
)

// Sentinel errors. The xqib facade re-exports these; match with
// errors.Is at any wrapping depth.
var (
	// ErrNoCollection reports an operation on a hierarchical collection
	// that does not exist (storing into it, scanning it).
	ErrNoCollection = errors.New("xmldb: no such collection")
	// ErrDocNotFound reports a read of a document URI with no document.
	ErrDocNotFound = errors.New("xmldb: no such document")
	// ErrStoreClosed reports an operation on a store after Close — or
	// after a failed commit poisoned it (a commit whose redo record did
	// not reach the log durably must not be retried against state that
	// no longer matches the disk).
	ErrStoreClosed = errors.New("xmldb: store closed")
	// ErrConflict reports an optimistic update that lost the
	// first-committer-wins race: the document changed between the
	// update's snapshot and its commit.
	ErrConflict = errors.New("xmldb: concurrent update conflict")
)

// Option configures Open.
type Option func(*config)

type config struct {
	shards    int
	sync      bool
	ckptEvery int
}

// WithShards sets the number of sub-stores the document space is
// partitioned into (default 4, minimum 1). The count is an in-memory
// layout choice: a directory written under one count reopens correctly
// under any other.
func WithShards(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithSyncWrites controls whether every commit fsyncs its redo record
// (default true). Turning it off trades the durability of the last few
// commits for write throughput — the benchmark setting.
func WithSyncWrites(on bool) Option {
	return func(c *config) { c.sync = on }
}

// WithCheckpointEvery makes the store write a snapshot and truncate the
// redo log automatically every n commits (default 0: checkpoints happen
// only at Open, Close and explicit Checkpoint calls).
func WithCheckpointEvery(n int) Option {
	return func(c *config) { c.ckptEvery = n }
}

// Names of the two files a store directory holds.
const (
	snapFile = "store.snap"
	logFile  = "store.wal"
)

// Store is the document database: sharded in memory, durable on disk
// when opened with a directory.
type Store struct {
	dir    string // "" for ephemeral
	shards []*shard
	cols   *colSet
	engine *xquery.Engine
	Stats  Stats

	syncEach  bool
	ckptEvery int

	// commitMu serialises the commit protocol — conflict check, redo
	// append, in-memory apply — and guards the fields below. Reads
	// never take it.
	commitMu  sync.Mutex
	log       *wal.Writer // nil for ephemeral stores
	seq       uint64      // last committed sequence number
	sinceCkpt int
	closed    bool
	cause     error // why the store closed, when poisoned
}

// Open opens (creating if needed) the store in dir. An empty dir opens
// an ephemeral in-memory store with identical semantics and no
// durability. Recovery runs before Open returns: the newest snapshot
// loads, the redo-log tail beyond it replays, and the recovered state
// immediately re-checkpoints (fresh snapshot, truncated log) so a torn
// log tail from a crash is never appended after.
func Open(dir string, opts ...Option) (*Store, error) {
	cfg := config{shards: 4, sync: true}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Store{
		dir:       dir,
		shards:    make([]*shard, cfg.shards),
		cols:      newColSet(),
		engine:    xquery.New(),
		syncEach:  cfg.sync,
		ckptEvery: cfg.ckptEvery,
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("xmldb: open %s: %w", dir, err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	// Attach persisted full-text indexes before the re-checkpoint, so
	// the checkpoint's sidecar write sees them fresh and re-persists.
	s.loadFTIndexes()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.checkpointLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover rebuilds in-memory state from the snapshot and the redo-log
// tail. Every record replayed passes the store.replay fault point, so
// the chaos suite can abort recovery at any chosen record.
func (s *Store) recover() error {
	apply := func(r wal.Record) error {
		if err := faultpoint.Hit(faultpoint.PointStoreReplay); err != nil {
			return fmt.Errorf("xmldb: replay seq %d: %w", r.Seq, err)
		}
		return s.applyRecord(r)
	}
	snapSeq, err := wal.ReadSnapshot(filepath.Join(s.dir, snapFile), apply)
	if err != nil {
		return fmt.Errorf("xmldb: snapshot: %w", err)
	}
	s.seq = snapSeq
	err = wal.ReadLog(filepath.Join(s.dir, logFile), func(r wal.Record) error {
		if r.Seq <= snapSeq {
			return nil // the snapshot already contains this commit
		}
		if err := apply(r); err != nil {
			return err
		}
		s.seq = r.Seq
		s.Stats.walReplays.Add(1)
		return nil
	})
	if err != nil {
		return fmt.Errorf("xmldb: log replay: %w", err)
	}
	return nil
}

// applyRecord applies one redo primitive to in-memory state — the
// shared interpreter for snapshot load and log replay.
func (s *Store) applyRecord(r wal.Record) error {
	switch r.Kind {
	case wal.Put:
		doc, err := markup.Parse(string(r.Data))
		if err != nil {
			return fmt.Errorf("xmldb: replay seq %d (%s): %w", r.Seq, r.Path, err)
		}
		doc.SetBaseURI(r.Path)
		s.cols.create(collectionOf(r.Path))
		s.shardFor(r.Path).publish(r.Path, doc)
	case wal.Delete:
		s.shardFor(r.Path).remove(r.Path)
	case wal.MkCol:
		s.cols.create(normCollection(r.Path))
	case wal.RmCol:
		s.applyRmCol(normCollection(r.Path))
	default:
		return fmt.Errorf("xmldb: replay seq %d: unknown primitive %v", r.Seq, r.Kind)
	}
	return nil
}

// applyRmCol removes a collection subtree and every document in it.
func (s *Store) applyRmCol(col string) {
	for _, sh := range s.shards {
		sh.removeWhere(func(uri string) bool { return inCollection(col, uri) && col != "/" })
	}
	s.cols.remove(col)
}

// shardFor maps a URI to its shard.
func (s *Store) shardFor(uri string) *shard {
	return s.shards[shardIndex(uri, len(s.shards))]
}

// errNoop tells commit "the check decided there is nothing to do":
// succeed without logging or applying anything.
var errNoop = errors.New("xmldb: no-op commit")

// commit runs the store's commit protocol for one redo primitive:
// under the commit lock, check preconditions, append the record to the
// redo log, fsync (when configured), then apply to memory. The order is
// the durability contract — a commit is in memory only if it is on
// disk. A failed append poisons the store (ErrStoreClosed thereafter):
// memory still matches the log's intact prefix, and reopening the
// directory recovers exactly that state.
func (s *Store) commit(kind wal.Kind, path string, data []byte, check func() error, apply func()) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.closed {
		return s.closedErr()
	}
	if check != nil {
		if err := check(); err != nil {
			if errors.Is(err, errNoop) {
				return nil
			}
			return err
		}
	}
	seq := s.seq + 1
	if s.log != nil {
		if err := s.log.Append(wal.Record{Seq: seq, Kind: kind, Path: path, Data: data}); err != nil {
			s.closed = true
			s.cause = err
			return fmt.Errorf("xmldb: commit seq %d: %w: %w", seq, ErrStoreClosed, err)
		}
		s.Stats.walAppends.Add(1)
	}
	s.seq = seq
	apply()
	s.Stats.commits.Add(1)
	s.sinceCkpt++
	if s.ckptEvery > 0 && s.sinceCkpt >= s.ckptEvery {
		if err := s.checkpointLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) closedErr() error {
	if s.cause != nil {
		return fmt.Errorf("%w (cause: %v)", ErrStoreClosed, s.cause)
	}
	return ErrStoreClosed
}

// snapshotRecords renders the whole current state as redo primitives:
// collection creations first, then every document, URI-ordered.
func (s *Store) snapshotRecords() []wal.Record {
	var recs []wal.Record
	for _, col := range s.cols.list() {
		if col != "/" {
			recs = append(recs, wal.Record{Kind: wal.MkCol, Path: col})
		}
	}
	for _, e := range mergeEntries(scanShards(s.shards, nil)) {
		recs = append(recs, wal.Record{
			Kind: wal.Put,
			Path: e.uri,
			Data: markup.AppendXML(nil, e.rev.root),
		})
	}
	return recs
}

// checkpointLocked writes a full snapshot and truncates the redo log.
// Caller holds the commit lock.
func (s *Store) checkpointLocked() error {
	if s.dir == "" {
		return nil
	}
	if err := wal.WriteSnapshot(filepath.Join(s.dir, snapFile), s.seq, s.snapshotRecords()); err != nil {
		return fmt.Errorf("xmldb: checkpoint: %w", err)
	}
	s.writeFTIndexesLocked()
	if s.log != nil {
		s.log.Close()
	}
	w, err := wal.Create(filepath.Join(s.dir, logFile), s.syncEach)
	if err != nil {
		return fmt.Errorf("xmldb: checkpoint: %w", err)
	}
	s.log = w
	s.sinceCkpt = 0
	s.Stats.checkpoints.Add(1)
	return nil
}

// Checkpoint writes a full snapshot and truncates the redo log, putting
// a floor under the next recovery's replay work.
func (s *Store) Checkpoint() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.closed {
		return s.closedErr()
	}
	return s.checkpointLocked()
}

// Close checkpoints (persistent stores) and closes the store. Commits
// after Close fail with ErrStoreClosed; reads keep serving the last
// committed state. Closing a closed store is a no-op.
func (s *Store) Close() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.dir != "" {
		err = s.checkpointLocked()
		if s.log != nil {
			if cerr := s.log.Close(); err == nil {
				err = cerr
			}
			s.log = nil
		}
	}
	s.closed = true
	return err
}
