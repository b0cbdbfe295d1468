package checkpoint

import (
	"errors"
	"fmt"
	"testing"

	"jitckpt/internal/vclock"
)

// msTestGen commits a hand-built multi-step generation of n objects under
// dir: (n+1)/2 slices captured at consecutive iterations from 10 and n/2
// gradient objects from iteration 10 on — the shape the writer produces,
// and for even n one gradient more than restore needs.
func msTestGen(t *testing.T, p *vclock.Proc, st *Store, dir string, n int) {
	t.Helper()
	slices := (n + 1) / 2
	m := MSMeta{BaseIter: 10, TargetIter: 10 + slices - 1, Slices: slices, Rank: 3}
	for i := 0; i < n; i++ {
		o := MSObject{Name: fmt.Sprintf("grad%02d.bin", i/2), Iter: 10 + i/2}
		if i%2 == 0 {
			o.Name, o.Layers = fmt.Sprintf("slice%02d.bin", i/2), []int{i, i + 1}
		}
		data := []byte(fmt.Sprintf("object %d of %d", i, n))
		o.Checksum, o.DataLen = Sum(data), len(data)
		if err := st.Write(p, dir+"/"+o.Name, data, 64); err != nil {
			t.Fatal(err)
		}
		m.Objects = append(m.Objects, o)
	}
	if err := st.Write(p, msMetaPath(dir), m.encode(), 256); err != nil {
		t.Fatal(err)
	}
}

// TestEveryMetadataBitFlipIsCorrupt damages each committed metadata object
// in every way the store's fault model allows — any one bit flipped, any
// truncation — and requires the reader to say ErrCorrupt and deep
// validation to refuse the entry. A damaged META that still decodes, to a
// wrong iteration or rank or to a checksum that happens to match, would be
// trusted at restore.
func TestEveryMetadataBitFlipIsCorrupt(t *testing.T) {
	env := vclock.NewEnv(1)
	st := NewStore(env, "disk", TmpfsParams())
	runProc(t, env, func(p *vclock.Proc) {
		type object struct {
			path  string
			read  func() error
			valid func() bool
		}
		rankDir := RankDir("job", "jit", 300, 5)
		if err := WriteRank(p, st, rankDir, testState(300, 5, 7), 1<<10); err != nil {
			t.Fatal(err)
		}
		fragDir := RankDir("job", "peer", 300, 6)
		fm := FragMeta{Iter: 300, Rank: 6, Frag: 2, K: 2, M: 1, DataLen: 7, DataSum: Sum([]byte("payload")), FragSum: Sum([]byte("load"))}
		if err := WriteFrag(p, st, fragDir, fm, []byte("load"), 1<<10); err != nil {
			t.Fatal(err)
		}
		objects := []object{{
			path:  metaPath(rankDir),
			read:  func() error { _, err := ReadMeta(p, st, rankDir); return err },
			valid: func() bool { return ValidDeep(p, st, rankDir) },
		}, {
			path:  FragMetaPath(fragDir, 2),
			read:  func() error { _, err := ReadFragMeta(p, st, fragDir, 2); return err },
			valid: func() bool { return ValidFragDeep(p, st, fragDir, 2) },
		}}
		for _, n := range []int{1, 4, 9} {
			dir := MultiStepGenDir("job", 10+(n+1)/2-1, n)
			msTestGen(t, p, st, dir, n)
			objects = append(objects, object{
				path:  msMetaPath(dir),
				read:  func() error { _, err := readMSMeta(p, st, dir); return err },
				valid: func() bool { return msValidDeep(p, st, dir) },
			})
		}
		for _, o := range objects {
			if err := o.read(); err != nil || !o.valid() {
				t.Fatalf("%s: the undamaged object is refused (read err %v)", o.path, err)
			}
			pristine := st.files[o.path]
			check := func(damage string, data []byte) {
				st.files[o.path] = entry{data: data, modelBytes: pristine.modelBytes}
				if err := o.read(); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s, %s: read error %v, want ErrCorrupt", o.path, damage, err)
				}
				if o.valid() {
					t.Errorf("%s, %s: deep validation accepts it", o.path, damage)
				}
			}
			for bit := 0; bit < 8*len(pristine.data); bit++ {
				data := append([]byte(nil), pristine.data...)
				data[bit/8] ^= 1 << (bit % 8)
				check(fmt.Sprintf("bit %d of byte %d flipped", bit%8, bit/8), data)
			}
			for n := 0; n < len(pristine.data); n++ {
				check(fmt.Sprintf("cut to %d of %d bytes", n, len(pristine.data)), pristine.data[:n])
			}
			st.files[o.path] = pristine
			if !o.valid() {
				t.Fatalf("%s: restoring the object did not restore validity", o.path)
			}
		}
	})
}
