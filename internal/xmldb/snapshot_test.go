package xmldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/xdm"
)

// The snapshot cache (shard.colSnapshot) against its oracle: a fresh
// walk of the shards (snapshotSorted) taken while no commit can go in.

// snapshotCols are the nested collections the differential writes to
// and scans: a parent, two children and a grandchild, and the root.
var snapshotCols = []string{"/db", "/db/a", "/db/a/x", "/db/b"}

// scanURIs is what a scan of col answers, as URIs in merge order.
func scanURIs(t *testing.T, s *Store, col string) []string {
	t.Helper()
	parts, err := s.colEntries(col)
	if err != nil {
		return nil // removed under the scan: the oracle says the same
	}
	var uris []string
	for _, e := range mergeEntries(parts) {
		uris = append(uris, e.uri+"@"+strconv.FormatUint(e.rev.rev, 10))
	}
	return uris
}

// walkURIs is the oracle: every shard walked afresh.
func walkURIs(s *Store, col string) []string {
	if !s.cols.exists(col) {
		return nil
	}
	var uris []string
	for _, e := range mergeEntries(scanShards(s.shards, inCollectionMatch(col))) {
		uris = append(uris, e.uri+"@"+strconv.FormatUint(e.rev.rev, 10))
	}
	return uris
}

// TestSnapshotCacheDifferential: writers put, replace and delete
// documents and create and remove collections while scanners read
// nested collections, racing every build of a snapshot against the
// commits. Every so often a scanner stops the commits and checks that
// what a scan answers — the cached snapshots — is what a fresh walk
// of the shards answers; a snapshot that survived a commit to its
// collection, or was cached across one, shows as a stale revision or a
// missing or extra document.
func TestSnapshotCacheDifferential(t *testing.T) {
	s, err := Open("", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, col := range snapshotCols {
		if err := s.CreateCollection(col); err != nil {
			t.Fatal(err)
		}
	}
	const writers, scanners, ops = 3, 3, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				col := snapshotCols[rng.Intn(len(snapshotCols))]
				uri := fmt.Sprintf("%s/d%d.xml", col, rng.Intn(6))
				switch r := rng.Intn(20); {
				case r < 12:
					_ = s.PutXML(uri, fmt.Sprintf(`<d n="%d"/>`, i)) // ErrNoCollection while col is removed
				case r < 16:
					_ = s.Remove(uri)
				case r < 18:
					_ = s.CreateCollection(col)
				case col != "/db":
					_ = s.RemoveCollection(col)
				}
			}
		}(int64(w + 1))
	}
	scanned := append(slices.Clone(snapshotCols), "/")
	checks := 0
	var checksMu sync.Mutex
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				col := scanned[rng.Intn(len(scanned))]
				it, err := s.CollectionIter(col)
				if err == nil {
					if _, err := xdm.Materialize(it); err != nil {
						t.Error(err)
						return
					}
				}
				if i%10 != 0 {
					continue
				}
				s.commitMu.Lock()
				got, want := scanURIs(t, s, col), walkURIs(s, col)
				s.commitMu.Unlock()
				if !slices.Equal(got, want) {
					t.Errorf("scan of %s = %v, a fresh walk = %v", col, got, want)
					return
				}
				checksMu.Lock()
				checks++
				checksMu.Unlock()
			}
		}(int64(100 + g))
	}
	wg.Wait()
	for _, col := range scanned {
		if got, want := scanURIs(t, s, col), walkURIs(s, col); !slices.Equal(got, want) {
			t.Errorf("after the run: scan of %s = %v, a fresh walk = %v", col, got, want)
		}
	}
	if checks == 0 {
		t.Fatal("no scan was checked")
	}
}

// TestCollectionIterCostIsTheCollections: a warm scan of a collection
// reads each shard's cached snapshot, so materializing it allocates the
// same beside 64 other documents as beside 4,096.
func TestCollectionIterCostIsTheCollections(t *testing.T) {
	scanAllocs := func(outside int) float64 {
		s, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, col := range []string{"/db/in", "/db/out"} {
			if err := s.CreateCollection(col); err != nil {
				t.Fatal(err)
			}
		}
		put := func(uri string) {
			if err := s.PutXML(uri, `<d/>`); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			put("/db/in/d" + strconv.Itoa(i) + ".xml")
		}
		for i := 0; i < outside; i++ {
			put("/db/out/d" + strconv.Itoa(i) + ".xml")
		}
		scan := func() {
			it, err := s.CollectionIter("/db/in")
			if err != nil {
				t.Fatal(err)
			}
			if seq, err := xdm.Materialize(it); err != nil || len(seq) != 64 {
				t.Fatalf("collection with %d outside: %d docs, %v", outside, len(seq), err)
			}
		}
		scan()
		return testing.AllocsPerRun(50, scan)
	}
	few, many := scanAllocs(64), scanAllocs(4096)
	if few != many {
		t.Errorf("a warm scan of 64 documents allocates %.0f times beside 64 others and %.0f beside 4,096", few, many)
	}
}

// TestPutThenCollectionSeesTheDocument: a commit drops the snapshots
// its document is in — its collection's and every one above it — so
// the next scan of any of them answers the new revision, and a
// collection beside it keeps its snapshot.
func TestPutThenCollectionSeesTheDocument(t *testing.T) {
	s, err := Open("", WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, col := range []string{"/db/a/x", "/db/b", "/db/ab"} {
		if err := s.CreateCollection(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutXML("/db/b/d.xml", `<d/>`); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"/", "/db", "/db/a", "/db/a/x", "/db/b", "/db/ab"} {
		scanURIs(t, s, col) // cache every snapshot
	}
	if err := s.PutXML("/db/a/x/d.xml", `<d/>`); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	for col, cached := range map[string]bool{"/": false, "/db": false, "/db/a": false, "/db/a/x": false, "/db/b": true, "/db/ab": true} {
		if _, ok := sh.colSnaps[col]; ok != cached {
			t.Errorf("after a put into /db/a/x: snapshot of %s cached = %v, want %v", col, ok, cached)
		}
		if got, want := scanURIs(t, s, col), walkURIs(s, col); !slices.Equal(got, want) {
			t.Errorf("scan of %s = %v, want %v", col, got, want)
		}
	}
}
