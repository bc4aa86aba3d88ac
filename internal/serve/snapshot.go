package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"zen-go/internal/bdd"
	"zen-go/zen"
)

// Persistent per-model snapshots: the warm state a drained zend writes
// to disk and a starting zend reads back, so a restart does not reset
// every answer to a cold solve. Two things persist per model:
//
//   - Exact results, keyed on the structural DAG fingerprint (see
//     fingerprint.go) plus kind/max/bound: a restarted server answers a
//     previously-cached query without touching a solver.
//   - The subsumption index's reachable BDD node table with its
//     unsat/sat roots, so implication answers also survive restarts.
//
// Files are guarded by a model fingerprint (the hash of the model's own
// result DAG): if the model changed between runs, its snapshot is
// silently discarded — persisted verdicts describe the old semantics.
//
// Snapshots cover registry models only. Dynamic instances are created
// through the API after start and cannot meaningfully outlive their
// process; their warm state is rebuilt by /v1/update traffic.

// snapshotFile is the on-disk format, one file per model.
type snapshotFile struct {
	APIVersion string        `json:"api_version"`
	Model      string        `json:"model"`
	ModelFP    string        `json:"model_fp"`
	Entries    []snapEntry   `json:"entries,omitempty"`
	BDD        *bdd.Snapshot `json:"bdd,omitempty"`
	// ListBound is the list bound BDD's subsumption world was built at;
	// a world is only reloaded at the bound it was built for.
	ListBound int            `json:"list_bound,omitempty"`
	Unsat     []snapSubEntry `json:"unsat,omitempty"`
	Sat       []snapSubEntry `json:"sat,omitempty"`
}

// snapEntry is one exact, fingerprint-keyed result.
type snapEntry struct {
	FP      string           `json:"fp"`
	Kind    string           `json:"kind"`
	Max     int              `json:"max,omitempty"`
	Bound   int              `json:"bound,omitempty"`
	Verdict string           `json:"verdict"`
	Model   map[string]any   `json:"model,omitempty"`
	Models  []map[string]any `json:"models,omitempty"`
	Solves  int64            `json:"solves"`
}

// snapSubEntry is one subsumption-index entry; Root indexes BDD.Roots.
type snapSubEntry struct {
	Root   int            `json:"root"`
	Model  map[string]any `json:"model,omitempty"`
	Solves int64          `json:"solves"`
}

type snapKey struct {
	model string
	fp    string
	kind  queryKind
	max   int
	bound int
}

// snapshotStore is the in-memory exact map loaded from disk.
type snapshotStore struct {
	dir   string
	mu    sync.Mutex
	exact map[snapKey]*snapEntry
}

func newSnapshotStore(dir string) *snapshotStore {
	return &snapshotStore{dir: dir, exact: make(map[snapKey]*snapEntry)}
}

func (st *snapshotStore) enabled() bool { return st != nil && st.dir != "" }

// hit answers a query from the exact map, nil on miss. The predicate is
// fingerprinted only when snapshots are enabled.
func (st *snapshotStore) hit(k queryKey) *Response {
	if !st.enabled() {
		return nil
	}
	sk := snapKey{model: k.model, fp: fingerprint(k.cond), kind: k.kind, max: k.max, bound: k.bound}
	st.mu.Lock()
	e, ok := st.exact[sk]
	st.mu.Unlock()
	if !ok {
		return nil
	}
	return &Response{
		Status:       e.Verdict,
		Provenance:   ProvCached,
		FromSnapshot: true,
		Model:        e.Model,
		Models:       e.Models,
		Counters:     &Counters{Solves: e.Solves},
	}
}

func snapshotPath(dir, model string) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, model)
	return filepath.Join(dir, name+".snap.json")
}

// load reads every snapshot file for the server's models, filling the
// exact map and seeding the subsumption index. Unreadable, stale, or
// malformed files are skipped (a snapshot is an optimization, never a
// correctness dependency).
func (s *Server) loadSnapshots() {
	st := s.snapshots
	if !st.enabled() {
		return
	}
	for name, entry := range s.models {
		raw, err := os.ReadFile(snapshotPath(st.dir, name))
		if err != nil {
			continue
		}
		var file snapshotFile
		if err := json.Unmarshal(raw, &file); err != nil || file.Model != name {
			continue
		}
		m := entry.queryable()
		if m == nil || file.ModelFP != fingerprint(m.QueryOut()) {
			continue // model changed since the snapshot; verdicts are stale
		}
		st.mu.Lock()
		for i := range file.Entries {
			e := &file.Entries[i]
			if e.Bound == 0 {
				e.Bound = zen.DefaultListBound // written before bounds were normalized
			}
			k := snapKey{model: name, fp: e.FP, max: e.Max, bound: e.Bound}
			switch e.Kind {
			case "find":
				k.kind = kindFind
			case "findall":
				k.kind = kindFindAll
			case "verify":
				k.kind = kindVerify
			default:
				continue
			}
			st.exact[k] = e
		}
		st.mu.Unlock()
		if file.BDD == nil || file.ListBound != zen.DefaultListBound {
			continue
		}
		// Rebuild the subsumption world: Fresh allocation is
		// deterministic for a fixed model and bound, so the persisted
		// levels line up with a freshly-built world's.
		key := subWorldKey{model: name, gen: 0, bound: zen.DefaultListBound}
		s.subsume.mu.Lock()
		w := s.subsume.world(key, m.QueryArgs())
		roots, err := w.alg.Man.Import(file.BDD)
		s.subsume.mu.Unlock()
		if err != nil {
			continue
		}
		seed := func(entries []snapSubEntry, sat bool) {
			for _, e := range entries {
				if e.Root < 0 || e.Root >= len(roots) {
					continue
				}
				s.subsume.seed(key, m.QueryArgs(), roots[e.Root], sat, e.Model, e.Solves)
			}
		}
		seed(file.Unsat, false)
		seed(file.Sat, true)
	}
}

// writeSnapshots persists warm state on drain: the LRU's completed
// results (exact entries) merged over anything loaded at start, plus the
// generation-0 subsumption worlds' BDD tables.
func (s *Server) writeSnapshots() error {
	st := s.snapshots
	if !st.enabled() {
		return nil
	}
	files := make(map[string]*snapshotFile)
	fileFor := func(model string) *snapshotFile {
		f, ok := files[model]
		if !ok {
			f = &snapshotFile{APIVersion: APIVersion, Model: model}
			files[model] = f
		}
		return f
	}
	// Round-trip entries loaded at start so an idle restart keeps them.
	st.mu.Lock()
	written := make(map[snapKey]bool, len(st.exact))
	for k, e := range st.exact {
		fileFor(k.model).Entries = append(fileFor(k.model).Entries, *e)
		written[k] = true
	}
	st.mu.Unlock()
	for _, le := range s.cache.entries() {
		k := le.key
		if _, ok := s.models[k.model]; !ok {
			continue // dynamic instance; not persisted
		}
		res := le.res
		switch res.Status {
		case "sat", "unsat", "valid", "invalid":
		default:
			continue
		}
		sk := snapKey{model: k.model, fp: fingerprint(k.cond), kind: k.kind, max: k.max, bound: k.bound}
		if written[sk] {
			continue
		}
		written[sk] = true
		fileFor(k.model).Entries = append(fileFor(k.model).Entries, snapEntry{
			FP: sk.fp, Kind: k.kind.String(), Max: k.max, Bound: k.bound,
			Verdict: res.Status, Model: res.Model, Models: res.Models,
			Solves: res.SolveCount(),
		})
	}
	// Subsumption worlds: export each registry model's gen-0 world at the
	// default list bound (worlds at other bounds use their own variable
	// spaces and are not persisted).
	s.subsume.mu.Lock()
	for key, w := range s.subsume.worlds {
		if key.gen != 0 || key.bound != zen.DefaultListBound {
			continue
		}
		if _, ok := s.models[key.model]; !ok {
			continue
		}
		if len(w.unsat) == 0 && len(w.sat) == 0 {
			continue
		}
		f := fileFor(key.model)
		var roots []bdd.Ref
		for _, e := range w.unsat {
			f.Unsat = append(f.Unsat, snapSubEntry{Root: len(roots), Model: e.model, Solves: e.solves})
			roots = append(roots, e.ref)
		}
		for _, e := range w.sat {
			f.Sat = append(f.Sat, snapSubEntry{Root: len(roots), Model: e.model, Solves: e.solves})
			roots = append(roots, e.ref)
		}
		f.BDD = w.alg.Man.Export(roots)
		f.ListBound = key.bound
	}
	s.subsume.mu.Unlock()

	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	var firstErr error
	for model, f := range files {
		m := s.models[model].queryable()
		if m == nil {
			continue
		}
		f.ModelFP = fingerprint(m.QueryOut())
		raw, err := json.Marshal(f)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		path := snapshotPath(st.dir, model)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, raw, 0o644); err == nil {
			err = os.Rename(tmp, path)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return fmt.Errorf("serve: snapshot write: %w", firstErr)
	}
	return nil
}
