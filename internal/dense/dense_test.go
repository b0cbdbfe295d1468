package dense

import (
	"slices"
	"testing"
)

func TestTable(t *testing.T) {
	tab := Start[string](1)
	if h := tab.Add("a"); h != 1 {
		t.Fatalf("first handle %d, want 1", h)
	}
	tab.Add("b")
	tab.Set(5, "") // a zero value is a value; 4 and below stay empty
	tab.Delete(2)
	tab.Delete(-7) // out of range: nothing to do
	for _, c := range []struct {
		h  int
		v  string
		ok bool
	}{{0, "", false}, {1, "a", true}, {2, "", false}, {4, "", false}, {5, "", true}, {6, "", false}} {
		if v, ok := tab.At(c.h); v != c.v || ok != c.ok {
			t.Errorf("At(%d) = %q, %v; want %q, %v", c.h, v, ok, c.v, c.ok)
		}
	}
	if h := tab.Add("c"); h != 6 {
		t.Errorf("Add after Set(5) handed out %d, want 6", h)
	}

	var seen []int
	tab.Each(func(h int, v string) {
		seen = append(seen, h)
		if h == 1 {
			tab.Add("d") // handles Each's own callback adds are visited too
		}
	})
	if want := []int{1, 5, 6, 7}; !slices.Equal(seen, want) {
		t.Errorf("Each visited %v, want %v", seen, want)
	}

	clone := tab.Clone()
	tab.Reset()
	if _, ok := tab.At(1); ok {
		t.Error("a handle survived Reset")
	}
	if h := tab.Add("e"); h != 8 {
		t.Errorf("Add after Reset handed out %d, want 8: forgotten handles are not reused", h)
	}
	if v, ok := clone.At(1); !ok || v != "a" {
		t.Error("Reset reached into a clone")
	}
}
