package checkpoint

import (
	"fmt"
	"strconv"
	"strings"

	"jitckpt/internal/vclock"
)

// Entry is one checkpoint directory a store walk found: a rank entry
// (RankDir, word "iter") or a multi-step generation (MultiStepGenDir, word
// "gen"), with the iteration and rank its name carries.
type Entry struct {
	Iter, Rank int
	Dir        string
}

// nsPrefix is the store prefix of one checkpoint namespace of a job.
func nsPrefix(job, ns string) string { return fmt.Sprintf("%s/ckpt/%s/", job, ns) }

// Entries is the one walk every tier lists its store through: it lists
// prefix, takes each object's parent directory once, and keeps the
// directories whose last two components read <word>%08d/rank%04d exactly —
// so model.bin, META, fragments, FMETAs and their .tmp staging names all
// collapse to one entry, a "gen" directory never passes for an "iter" one,
// and a name that only parses (iter4, iter+0000004) is junk. Entries come
// out in path order, which is (iter, rank) order while the numbers fit
// their widths.
func Entries(st *Store, prefix, word string) []Entry {
	var out []Entry
	seen := make(map[string]bool)
	for _, path := range st.List(prefix) {
		i := strings.LastIndexByte(path, '/')
		if i < 0 || seen[path[:i]] {
			continue
		}
		dir := path[:i]
		seen[dir] = true
		if e, ok := parseEntry(dir, word); ok {
			out = append(out, e)
		}
	}
	return out
}

// parseEntry reads dir's last two components as <word>%08d/rank%04d and
// accepts them only in the form RankDir and MultiStepGenDir print.
func parseEntry(dir, word string) (Entry, bool) {
	i := strings.LastIndexByte(dir, '/')
	if i < 0 {
		return Entry{}, false
	}
	iterS, ok1 := strings.CutPrefix(dir[strings.LastIndexByte(dir[:i], '/')+1:i], word)
	rankS, ok2 := strings.CutPrefix(dir[i+1:], "rank")
	iter, ok3 := canonical(iterS, 8)
	rank, ok4 := canonical(rankS, 4)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return Entry{}, false
	}
	return Entry{Iter: iter, Rank: rank, Dir: dir}, true
}

// canonical parses s as the non-negative number %0<width>d prints: digits
// only, zero-padded to exactly width, or wider with no leading zero.
func canonical(s string, width int) (int, bool) {
	if len(s) < width || (len(s) > width && s[0] == '0') {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// committed reports, by zero-time lookups, whether a metadata-last commit
// landed: the metadata object is present and non-empty, and so is the data
// object it certifies.
func committed(st *Store, meta, data string) bool {
	if n, ok := st.Stat(nil, meta); !ok || n == 0 {
		return false
	}
	_, ok := st.Stat(nil, data)
	return ok
}

// intact is the deep probe at metadata cost: the object at path exists with
// the recorded length, and the store's content hash (the etag kept beside
// each object) matches the recorded Sum — which catches the silent bit-flips
// a length check cannot, without a full read.
func intact(p *vclock.Proc, st *Store, path string, length int, sum uint32) bool {
	n, ok := st.Stat(p, path)
	if !ok || n != length {
		return false
	}
	h, ok := st.ContentHash(p, path)
	return ok && h == sum
}

// readVerified reads the object at path, charging read bandwidth, and
// checks it against the recorded length and Sum; name is what a failure
// calls the object.
func readVerified(p *vclock.Proc, st *Store, path string, length int, sum uint32, name string) ([]byte, error) {
	data, err := st.Read(p, path)
	if err != nil {
		return nil, err
	}
	if len(data) != length || Sum(data) != sum {
		return nil, fmt.Errorf("%w: %s fails checksum", ErrCorrupt, name)
	}
	return data, nil
}
