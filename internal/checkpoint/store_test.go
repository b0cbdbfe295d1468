package checkpoint

import (
	"bytes"
	"slices"
	"testing"

	"jitckpt/internal/vclock"
)

// TestStoreObjectsAreImmutable pins the store's ownership contract: Write
// keeps the writer's slice as the object, one slice may back objects in
// several stores, and every kind of damage — a chaos bit-flip, Corrupt — and
// every Read works on a private copy, so no object's bytes, and not the
// writer's buffer, ever change under another reader.
func TestStoreObjectsAreImmutable(t *testing.T) {
	env := vclock.NewEnv(1)
	a := NewStore(env, "a", TmpfsParams())
	b := NewStore(env, "b", TmpfsParams())
	payload, err := testState(3, 0, 11).Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(payload)
	other := []byte("an unrelated object")
	runProc(t, env, func(p *vclock.Proc) {
		for _, st := range []*Store{a, b} {
			if err := st.Write(p, "x", payload, 64); err != nil {
				t.Fatal(err)
			}
			if err := st.Write(p, "other", other, 64); err != nil {
				t.Fatal(err)
			}
		}
		if &a.files["x"].data[0] != &payload[0] || &b.files["x"].data[0] != &payload[0] {
			t.Error("Write copied the payload instead of keeping it")
		}

		// A torn write leaves a prefix that cannot grow back into the
		// payload; the retry stores the whole payload.
		a.SetChaos(func(string) WriteOutcome { return WriteTorn })
		if err := a.Write(p, "retry", payload, 64); !Retryable(err) {
			t.Fatalf("torn write: %v", err)
		}
		if torn := a.files["retry"].data; len(torn) != len(payload)/2 || cap(torn) != len(torn) {
			t.Errorf("torn prefix has len %d cap %d, want both %d", len(torn), cap(torn), len(payload)/2)
		}
		a.SetChaos(nil)
		if err := a.Write(p, "retry", payload, 64); err != nil {
			t.Fatal(err)
		}

		// Damage one store by a chaos bit-flip, the other by Corrupt.
		b.SetChaos(func(string) WriteOutcome { return WriteBitFlip })
		if err := b.Write(p, "flip", payload, 64); err != nil {
			t.Fatal(err)
		}
		b.SetChaos(nil)
		if !a.Corrupt("x") {
			t.Fatal("Corrupt found nothing")
		}

		read := func(st *Store, path string) []byte {
			got, err := st.Read(p, path)
			if err != nil {
				t.Fatalf("%s:%s: %v", st.Name(), path, err)
			}
			return got
		}
		if !bytes.Equal(payload, want) {
			t.Error("damage reached the writer's slice")
		}
		for _, o := range []struct {
			st      *Store
			path    string
			damaged bool
		}{{a, "x", true}, {a, "retry", false}, {b, "x", false}, {b, "flip", true}} {
			got := read(o.st, o.path)
			if bytes.Equal(got, want) == o.damaged {
				t.Errorf("%s:%s damaged = %v, want %v", o.st.Name(), o.path, !o.damaged, o.damaged)
			}
			if o.damaged && diffBytes(got, want) != 1 {
				t.Errorf("%s:%s differs from the payload in %d bytes, want 1", o.st.Name(), o.path, diffBytes(got, want))
			}
		}
		for _, st := range []*Store{a, b} {
			if !bytes.Equal(read(st, "other"), other) {
				t.Errorf("%s: an unrelated object changed", st.Name())
			}
		}

		// Read hands out a copy: scribbling on it changes nothing stored.
		got := read(b, "x")
		got[0] ^= 0xff
		if !bytes.Equal(read(b, "x"), want) || !bytes.Equal(payload, want) {
			t.Error("writing to a Read result changed the stored object")
		}
	})
}

func diffBytes(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
