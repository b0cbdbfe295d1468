package erasure

import "fmt"

// matrix is a dense row-major byte matrix over GF(2^8).
type matrix [][]byte

// newMatrix allocates a rows×cols zero matrix.
func newMatrix(rows, cols int) matrix {
	m := make(matrix, rows)
	for i := range m {
		m[i] = make([]byte, cols)
	}
	return m
}

// invert returns the inverse of a square matrix via Gauss-Jordan
// elimination with partial pivoting (row swaps only — every non-zero
// element of GF(2^8) is a unit, so any non-zero pivot works). It returns
// an error when the matrix is singular.
func (m matrix) invert() (matrix, error) {
	n := len(m)
	// Work on [m | I] in place.
	work := newMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		copy(work[i], m[i])
		work[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find a pivot row at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("erasure: singular matrix (column %d)", col)
		}
		work[col], work[pivot] = work[pivot], work[col]
		// Scale the pivot row so the pivot becomes 1.
		if p := work[col][col]; p != 1 {
			inv := gfInv(p)
			row := work[col]
			for j := range row {
				row[j] = gfMul(row[j], inv)
			}
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			mulAdd(work[r], work[col], work[r][col])
		}
	}
	out := newMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(out[i], work[i][n:])
	}
	return out, nil
}

// mulVec computes dst = m · shards, where shards is a column of byte
// slices (one per matrix column) and dst has one slice per matrix row.
// All slices must share a length, and dst must be zero: the products are
// xored into it.
func (m matrix) mulVec(dst, shards [][]byte) {
	for i, row := range m {
		for j, c := range row {
			mulAdd(dst[i], shards[j], c)
		}
	}
}
