package mcl

import (
	"math"
	"sort"
)

// entry is one stored value of a sparse column.
type entry struct {
	row int32
	val float64
}

// matrix is a column-major sparse matrix with n rows and n columns, the
// representation MCL iterates on. Columns keep their entries sorted by row.
type matrix struct {
	n    int
	cols [][]entry
}

func newMatrix(n int) *matrix {
	return &matrix{n: n, cols: make([][]entry, n)}
}

// nnz returns the total number of stored entries.
func (m *matrix) nnz() int {
	t := 0
	for _, c := range m.cols {
		t += len(c)
	}
	return t
}

// at returns the value at (row, col); zero if absent. O(log nnz(col)).
func (m *matrix) at(row, col int32) float64 {
	c := m.cols[col]
	i := sort.Search(len(c), func(i int) bool { return c[i].row >= row })
	if i < len(c) && c[i].row == row {
		return c[i].val
	}
	return 0
}

// normalizeColumn scales column j to sum 1 (a stochastic column). Columns
// with zero mass are left untouched.
func (m *matrix) normalizeColumn(j int32) {
	s := 0.0
	for _, e := range m.cols[j] {
		s += e.val
	}
	if s <= 0 {
		return
	}
	inv := 1 / s
	for i := range m.cols[j] {
		m.cols[j][i].val *= inv
	}
}

// normalize makes every column stochastic.
func (m *matrix) normalize() {
	for j := int32(0); j < int32(m.n); j++ {
		m.normalizeColumn(j)
	}
}

// squareColumn computes column j of M*M into out using a dense scratch
// accumulator acc (len n, zeroed on entry and re-zeroed before return) and
// a touched-rows list. The result is sorted by row.
func (m *matrix) squareColumn(j int32, acc []float64, touched []int32, out []entry) []entry {
	touched = touched[:0]
	for _, e := range m.cols[j] {
		w := e.val
		for _, f := range m.cols[e.row] {
			if acc[f.row] == 0 {
				touched = append(touched, f.row)
			}
			acc[f.row] += w * f.val
		}
	}
	sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
	out = out[:0]
	for _, r := range touched {
		out = append(out, entry{row: r, val: acc[r]})
		acc[r] = 0
	}
	return out
}

// inflateColumn raises every entry of col to the given power and
// renormalizes; entries below floor after inflation are dropped, except
// that the maximum entry always survives (MCL's recovery rule, which keeps
// a column from vanishing entirely).
func inflateColumn(col []entry, power, floor float64) []entry {
	if len(col) == 0 {
		return col
	}
	sum := 0.0
	maxIdx, maxVal := 0, -1.0
	for i := range col {
		v := pow(col[i].val, power)
		col[i].val = v
		sum += v
		if v > maxVal {
			maxVal, maxIdx = v, i
		}
	}
	if sum <= 0 {
		return col[:0]
	}
	inv := 1 / sum
	out := col[:0]
	for i := range col {
		v := col[i].val * inv
		if v >= floor || i == maxIdx {
			out = append(out, entry{row: col[i].row, val: v})
		}
	}
	// Renormalize after pruning so the column stays stochastic.
	s := 0.0
	for _, e := range out {
		s += e.val
	}
	if s > 0 {
		inv = 1 / s
		for i := range out {
			out[i].val *= inv
		}
	}
	return out
}

// truncateColumn keeps only the maxNNZ largest entries of col (by value,
// ties broken by position), then renormalizes. Row-sorted order is
// preserved.
func truncateColumn(col []entry, maxNNZ int) []entry {
	if maxNNZ <= 0 || len(col) <= maxNNZ {
		return col
	}
	vals := make([]float64, len(col))
	for i, e := range col {
		vals[i] = e.val
	}
	sort.Float64s(vals)
	cut := vals[len(vals)-maxNNZ]
	above := 0
	for _, e := range col {
		if e.val > cut {
			above++
		}
	}
	tiesAllowed := maxNNZ - above
	out := col[:0]
	for _, e := range col {
		switch {
		case e.val > cut:
			out = append(out, e)
		case e.val == cut && tiesAllowed > 0:
			out = append(out, e)
			tiesAllowed--
		}
	}
	s := 0.0
	for _, e := range out {
		s += e.val
	}
	if s > 0 {
		inv := 1 / s
		for i := range out {
			out[i].val *= inv
		}
	}
	return out
}

// pow is a positive-base power with a fast path for the common MCL
// inflation value 2.0.
func pow(x, p float64) float64 {
	if p == 2 {
		return x * x
	}
	return math.Pow(x, p)
}
