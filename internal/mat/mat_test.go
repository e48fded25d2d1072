package mat

import (
	"testing"
)

func TestNewPlaneZeroed(t *testing.T) {
	p := NewPlane(3, 4)
	if p.Rows() != 3 || p.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", p.Rows(), p.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if p.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %d, want 0", i, j, p.At(i, j))
			}
		}
	}
}

func TestPlaneSetAt(t *testing.T) {
	p := NewPlane(5, 7)
	want := map[[2]int]Score{}
	v := Score(1)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			p.Set(i, j, v)
			want[[2]int{i, j}] = v
			v = v*3 + 1
		}
	}
	for k, w := range want {
		if got := p.At(k[0], k[1]); got != w {
			t.Errorf("At(%d,%d) = %d, want %d", k[0], k[1], got, w)
		}
	}
}

func TestPlaneRowShared(t *testing.T) {
	p := NewPlane(2, 3)
	row := p.Row(1)
	row[2] = 42
	if p.At(1, 2) != 42 {
		t.Fatalf("write through Row not visible: At(1,2) = %d", p.At(1, 2))
	}
	if len(row) != 3 {
		t.Fatalf("len(Row) = %d, want 3", len(row))
	}
}

func TestPlaneFill(t *testing.T) {
	p := NewPlane(4, 4)
	p.Fill(NegInf)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if p.At(i, j) != NegInf {
				t.Fatalf("At(%d,%d) = %d after Fill(NegInf)", i, j, p.At(i, j))
			}
		}
	}
}

func TestPlaneCopyFrom(t *testing.T) {
	src := NewPlane(2, 2)
	src.Set(0, 1, 9)
	src.Set(1, 0, -3)
	dst := NewPlane(2, 2)
	dst.CopyFrom(src)
	if dst.At(0, 1) != 9 || dst.At(1, 0) != -3 {
		t.Fatalf("CopyFrom did not copy values: %v %v", dst.At(0, 1), dst.At(1, 0))
	}
	// Mutating src afterwards must not affect dst.
	src.Set(0, 1, 100)
	if dst.At(0, 1) != 9 {
		t.Fatalf("dst aliases src after CopyFrom")
	}
}

func TestPlaneCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("CopyFrom with mismatched shape did not panic")
		}
	}()
	NewPlane(2, 2).CopyFrom(NewPlane(2, 3))
}

func TestNewPlaneNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewPlane(-1, 2) did not panic")
		}
	}()
	NewPlane(-1, 2)
}

func TestZeroSizedPlane(t *testing.T) {
	p := NewPlane(0, 5)
	if p.Bytes() != 0 {
		t.Fatalf("Bytes() = %d for empty plane", p.Bytes())
	}
}

func TestTensor3SetAtRoundTrip(t *testing.T) {
	tn := NewTensor3(3, 4, 5)
	v := Score(-7)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				tn.Set(i, j, k, v)
				if got := tn.At(i, j, k); got != v {
					t.Fatalf("At(%d,%d,%d) = %d, want %d", i, j, k, got, v)
				}
				v += 11
			}
		}
	}
}

func TestTensor3IndexDistinct(t *testing.T) {
	// Every (i,j,k) must map to a distinct flat offset inside the array.
	tn := NewTensor3(4, 3, 6)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 6; k++ {
				idx := tn.Index(i, j, k)
				if idx < 0 || idx >= 4*3*6 {
					t.Fatalf("Index(%d,%d,%d) = %d out of range", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("Index(%d,%d,%d) = %d collides", i, j, k, idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestTensor3Lane(t *testing.T) {
	tn := NewTensor3(2, 2, 4)
	lane := tn.Lane(1, 1)
	if len(lane) != 4 {
		t.Fatalf("len(Lane) = %d, want 4", len(lane))
	}
	lane[3] = 99
	if tn.At(1, 1, 3) != 99 {
		t.Fatalf("write through Lane not visible")
	}
}

func TestTensor3PlaneI(t *testing.T) {
	tn := NewTensor3(3, 2, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				tn.Set(i, j, k, Score(100*i+10*j+k))
			}
		}
	}
	pl := NewPlane(2, 2)
	tn.PlaneI(2, pl)
	for j := 0; j < 2; j++ {
		for k := 0; k < 2; k++ {
			if got, want := pl.At(j, k), Score(200+10*j+k); got != want {
				t.Errorf("plane(%d,%d) = %d, want %d", j, k, got, want)
			}
		}
	}
}

func TestTensor3PlaneIShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("PlaneI with wrong plane shape did not panic")
		}
	}()
	NewTensor3(2, 3, 4).PlaneI(0, NewPlane(4, 3))
}

func TestBytesAccounting(t *testing.T) {
	if got := NewTensor3(10, 10, 10).Bytes(); got != 4000 {
		t.Fatalf("Tensor3.Bytes = %d, want 4000", got)
	}
	if got := Tensor3Bytes(10, 10, 10); got != 4000 {
		t.Fatalf("Tensor3Bytes = %d, want 4000", got)
	}
	if got := NewPlane(8, 8).Bytes(); got != 256 {
		t.Fatalf("Plane.Bytes = %d, want 256", got)
	}
	if got := PlaneBytes(8, 8); got != 256 {
		t.Fatalf("PlaneBytes = %d, want 256", got)
	}
}

func TestNegInfHeadroom(t *testing.T) {
	// Adding a worst-case column score to NegInf must stay far below zero
	// and must not wrap around.
	const worstColumn = 3 * 127
	v := NegInf - worstColumn
	if v >= 0 || v > NegInf {
		t.Fatalf("NegInf arithmetic wrapped: %d", v)
	}
}
