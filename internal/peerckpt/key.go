package peerckpt

import (
	"fmt"
	"strings"

	"jitckpt/internal/checkpoint"
)

// EntryRef is the typed key of one sheltered rank entry: the (iter, rank)
// pair under a job's shelter namespace. All shelter path handling routes
// through it — replica objects (model.bin/META) and erasure fragments
// (fragNNN.bin/FMETANNN) live under the same entry directory, so pruning,
// coverage scans and restore enumeration never re-derive paths with ad-hoc
// byte slicing.
type EntryRef struct {
	Job  string
	Iter int
	Rank int
}

// Dir returns the entry's checkpoint directory.
func (e EntryRef) Dir() string { return checkpoint.RankDir(e.Job, PolicyName, e.Iter, e.Rank) }

// shelterPrefix returns the store prefix of a job's shelter namespace.
func shelterPrefix(job string) string { return fmt.Sprintf("%s/ckpt/%s/", job, PolicyName) }

// parentDir returns the directory of an object path (everything before
// the final slash), or "" when the path has no directory.
func parentDir(path string) string {
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return ""
	}
	return path[:i]
}

// parseEntryPath resolves a stored object path into its entry ref. It
// accepts any object under an entry directory — model.bin, META,
// fragNNN.bin, FMETANNN, and their .tmp staging names all resolve to the
// same ref.
func parseEntryPath(path string) (EntryRef, bool) {
	dir := parentDir(path)
	iter, rank, ok := checkpoint.ParseRankDir(dir)
	if !ok {
		return EntryRef{}, false
	}
	marker := "/ckpt/" + PolicyName + "/"
	i := strings.Index(dir, marker)
	if i < 0 {
		return EntryRef{}, false
	}
	return EntryRef{Job: dir[:i], Iter: iter, Rank: rank}, true
}

// entriesIn lists the distinct entry refs present in one host store for a
// job, in deterministic (path-sorted) order.
func entriesIn(st *checkpoint.Store, job string) []EntryRef {
	var out []EntryRef
	seen := make(map[EntryRef]bool)
	for _, path := range st.List(shelterPrefix(job)) {
		ref, ok := parseEntryPath(path)
		if !ok || seen[ref] {
			continue
		}
		seen[ref] = true
		out = append(out, ref)
	}
	return out
}
