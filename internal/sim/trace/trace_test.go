package trace

import "testing"

func TestKindString(t *testing.T) {
	names := map[Kind]string{Load: "load", Store: "store", Branch: "branch", Other: "other"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind rendered empty")
	}
}

func TestSliceStream(t *testing.T) {
	s := &SliceStream{Insts: []Inst{{PC: 1}, {PC: 2}}}
	var in Inst
	if !s.Next(&in) || in.PC != 1 {
		t.Fatal("first instruction wrong")
	}
	if !s.Next(&in) || in.PC != 2 {
		t.Fatal("second instruction wrong")
	}
	if s.Next(&in) {
		t.Fatal("exhausted stream yielded an instruction")
	}
	s.Reset()
	if !s.Next(&in) || in.PC != 1 {
		t.Fatal("Reset did not rewind")
	}
}
