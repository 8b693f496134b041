package xmldb

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	ftindex "repro/internal/fulltext/index"
)

// Full-text index persistence: each checkpoint writes one gob sidecar
// per shard (ft-<i>.idx) holding the serialized full-text indexes of
// the shard's documents that currently carry a fresh one, and Open
// attaches them back before serving queries — so a reopened store
// skips the cold tokenize-and-stem build on its first ftcontains.
//
// The sidecars are strictly advisory: every serialized index embeds a
// hash of the document text it was built over, Attach re-verifies it
// against the recovered tree, and any mismatch (or a missing/corrupt
// sidecar) just means that document lazily rebuilds on first probe.
// Failures here are therefore counted, never surfaced.

// ftFileName names shard i's full-text sidecar.
func ftFileName(i int) string { return fmt.Sprintf("ft-%d.idx", i) }

// writeFTIndexesLocked persists the fresh full-text indexes of every
// shard's documents. Caller holds the commit lock (checkpoint path),
// so the document maps are stable.
func (s *Store) writeFTIndexesLocked() {
	if s.dir == "" {
		return
	}
	for i, sh := range s.shards {
		m := map[string]*ftindex.Serialized{}
		entries, _ := sh.snapshotSorted(nil)
		for _, e := range entries {
			d := ftindex.Fresh(e.rev.root)
			if d == nil {
				continue
			}
			if ser, ok := d.Serialize(); ok {
				m[e.uri] = ser
			}
		}
		path := filepath.Join(s.dir, ftFileName(i))
		if len(m) == 0 {
			os.Remove(path)
			continue
		}
		if err := writeFTFile(path, m); err == nil {
			s.Stats.ftPersisted.Add(int64(len(m)))
		}
	}
	// A store reopened with fewer shards would otherwise leave the
	// higher-numbered sidecars behind forever.
	leftovers, _ := filepath.Glob(filepath.Join(s.dir, "ft-*.idx"))
	for _, p := range leftovers {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(p), "ft-%d.idx", &idx); err == nil && idx >= len(s.shards) {
			os.Remove(p)
		}
	}
}

// writeFTFile writes one sidecar atomically (tmp + rename), so a crash
// mid-write leaves either the old sidecar or the new one, never a
// torn file.
func writeFTFile(path string, m map[string]*ftindex.Serialized) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(m); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// loadFTIndexes attaches every persisted full-text index whose
// document recovered and whose text still hashes to the persisted
// value. Sidecars are read regardless of the current shard count —
// documents are located by URI, so a store written under one count
// reopens correctly under any other, exactly like the snapshot.
func (s *Store) loadFTIndexes() {
	if s.dir == "" {
		return
	}
	files, _ := filepath.Glob(filepath.Join(s.dir, "ft-*.idx"))
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		var m map[string]*ftindex.Serialized
		err = gob.NewDecoder(f).Decode(&m)
		f.Close()
		if err != nil {
			continue
		}
		for uri, ser := range m {
			rev, ok := s.shardFor(uri).get(uri)
			if !ok {
				continue
			}
			if err := ftindex.Attach(rev.root, ser); err == nil {
				s.Stats.ftLoaded.Add(1)
			}
		}
	}
}
