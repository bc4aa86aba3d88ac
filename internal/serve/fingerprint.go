package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"zen-go/internal/core"
)

// fingerprint returns a structural hash of a predicate DAG, stable
// across processes. The old fingerprint was the interned node's address:
// free within one process (hash-consing makes structural identity
// pointer identity) but meaningless across restarts, where persisted
// snapshots must re-identify predicates. Two instabilities have to be
// canonicalized away:
//
//   - VarIDs come from a process-global counter, so the same model
//     rebuilt in a new process numbers its variables differently. The
//     hash renames every variable to its first-visit index in a
//     deterministic DFS — alpha-equivalent DAGs hash equal.
//   - Pointers obviously differ; the hash covers structure only (op,
//     type, constants, field indices, list bounds, children).
//
// The walk covers the model DAG under the predicate, so only the readers
// of a fingerprint pay for it: the trace "dag" attribute, the slow-query
// log, and the snapshot lookup and write. The query and update paths
// never call it. Within one process the root pointer is still a perfect
// identity, so computed fingerprints are memoized on it: a repeated
// reader pays one sync.Map hit. The memo holds the root weakly and
// deletes its entry once the root is collected, so it keeps no dropped
// predicate (or the model DAG under it) alive.
func fingerprint(root *core.Node) string {
	fingerprintCalls.Add(1)
	key := weak.Make(root)
	if fp, ok := fpCache.Load(key); ok {
		return fp.(string)
	}
	h := &fpHasher{
		memo: make(map[*core.Node][]byte),
		vars: make(map[int32]uint32),
	}
	sum := sha256.Sum256(h.hash(root))
	fp := hex.EncodeToString(sum[:16])
	if _, loaded := fpCache.LoadOrStore(key, fp); !loaded {
		runtime.AddCleanup(root, func(k weak.Pointer[core.Node]) { fpCache.Delete(k) }, key)
	}
	return fp
}

var fpCache sync.Map // weak.Pointer[core.Node] -> string

// fingerprintCalls counts fingerprint calls, so tests can pin the paths
// that never pay for one.
var fingerprintCalls atomic.Int64

type fpHasher struct {
	memo map[*core.Node][]byte // per-walk subtree digests
	vars map[int32]uint32      // VarID -> canonical index, first-visit order
}

// hash computes a 32-byte digest of the subtree. Shared subtrees are
// visited once; the memo is sound because variable canonicalization is
// assigned in deterministic DFS preorder, so a subtree's digest does not
// depend on where in the walk it was first reached beyond that global
// numbering — which is itself a function of the (deterministic) walk.
func (h *fpHasher) hash(n *core.Node) []byte {
	if d, ok := h.memo[n]; ok {
		return d
	}
	buf := make([]byte, 0, 64)
	var w [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	u64(uint64(n.Op))
	buf = append(buf, n.Type.String()...)
	buf = append(buf, 0)
	if n.BVal {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	u64(n.UVal)
	u64(uint64(n.Index))
	if n.VarID != 0 {
		idx, ok := h.vars[n.VarID]
		if !ok {
			idx = uint32(len(h.vars))
			h.vars[n.VarID] = idx
		}
		u64(uint64(idx) + 1)
	} else {
		u64(0)
	}
	// Bound vars (OpListCase) are hashed before Kids so their canonical
	// indices are assigned at the binding site, not first use.
	u64(uint64(len(n.Bound)))
	for _, b := range n.Bound {
		buf = append(buf, h.hash(b)...)
	}
	for _, k := range n.Kids {
		buf = append(buf, h.hash(k)...)
	}
	sum := sha256.Sum256(buf)
	d := sum[:]
	h.memo[n] = d
	return d
}
