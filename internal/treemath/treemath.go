// Package treemath implements the analytical tree-capacity results of
// the paper's Section 3: the recurrences behind Tables 3 and 4, which
// bound how many processors a Dir_iTree_2 forest of a given height can
// record.
//
// For Dir_2Tree_2 the paper derives (Table 3):
//
//	N_1(j) = j             (pointer P0's tree: a chain)
//	N_2(j) = 3 + Σ_{k=2}^{j-1} (N_1(k)+1) = j(j+1)/2
//
// and generalizes (Section 3.A) to
//
//	N_i(j) = 2^i - 1 + Σ_{k=i}^{j-1} (N_{i-1}(k) + 1)
//
// for the i-th pointer of Dir_iTree_2. Table 4 tabulates the maximum
// total number of processors recorded versus the tree level for
// Dir_2Tree_2 and Dir_4Tree_2 against a perfect binary tree (2^j - 1).
package treemath

import "fmt"

// N returns N_i(j): the maximum number of processors in the j-level
// tree pointed to by the i-th directory pointer (1-based) of a
// Dir_iTree_2 scheme, per the paper's recurrence.
//
// N_1(j) = j; N_i(j) = 2^i - 1 + Σ_{k=i}^{j-1} (N_{i-1}(k) + 1).
func N(i, j int) int64 {
	if i < 1 || j < 0 {
		panic(fmt.Sprintf("treemath: N(%d,%d) out of domain", i, j))
	}
	memo := make(map[[2]int]int64)
	return nMemo(i, j, memo)
}

func nMemo(i, j int, memo map[[2]int]int64) int64 {
	if j <= 0 {
		return 0
	}
	if i == 1 {
		return int64(j)
	}
	if j <= i {
		// A tree of level j <= i from the i-th pointer is at best a
		// perfect binary tree of height j.
		return (int64(1) << uint(j)) - 1
	}
	key := [2]int{i, j}
	if v, ok := memo[key]; ok {
		return v
	}
	// 2^i - 1 plus one merged (N_{i-1}(k)) tree + 1 new root per level
	// beyond i.
	v := (int64(1) << uint(i)) - 1
	for k := i; k <= j-1; k++ {
		v += nMemo(i-1, k, memo) + 1
	}
	memo[key] = v
	return v
}

// MaxNodes returns the Table 4 value: the maximum number of processors
// a Dir_iTree_2 directory can record when its tallest tree has the
// given level, i.e. Σ_{p=1}^{i} N_p(level).
func MaxNodes(i, level int) int64 {
	if i < 1 || level < 0 {
		panic(fmt.Sprintf("treemath: MaxNodes(%d,%d) out of domain", i, level))
	}
	var sum int64
	memo := make(map[[2]int]int64)
	for p := 1; p <= i; p++ {
		sum += nMemo(p, level, memo)
	}
	return sum
}

// PaperColumn reconstructs the formula that generates most of the
// paper's printed Dir_iTree_2 column in Table 4: N_i(level+1) + 1.
// Rows 3 and 6..12 of the paper's Dir_4Tree_2 column match this
// expression exactly (16, 99, 163, 256, 386, 562, 794, 1093), while
// rows 4 and 5 (43, 75) instead match MaxNodes — the paper's column
// mixes two readings of "maximum nodes at level j". EXPERIMENTS.md
// tabulates both against the printed values.
func PaperColumn(i, level int) int64 {
	return N(i, level+1) + 1
}

// CeilLog2 returns the bits of one node pointer in an n-processor
// machine, ceil(log2 n), and never less than 1: the log n factor of
// every directory-size formula in the paper's Table 2.
func CeilLog2(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// BinaryTreeNodes returns 2^level - 1, the capacity of the perfect
// binary tree maintained by STP or the SCI tree extension (Table 4's
// last column).
func BinaryTreeNodes(level int) int64 {
	if level < 0 {
		panic("treemath: negative level")
	}
	if level >= 63 {
		// 2^63-1 saturates int64; no simulated machine approaches it.
		return 1<<63 - 1
	}
	return (int64(1) << uint(level)) - 1
}

// LevelFor returns the smallest tree level whose Dir_iTree_2 capacity
// reaches n processors — the paper's "a 1024-node system needs a
// 12-level tree under Dir_4Tree_2" style statement.
func LevelFor(i int, n int64) int {
	if n <= 0 {
		return 0
	}
	for level := 1; ; level++ {
		if MaxNodes(i, level) >= n {
			return level
		}
	}
}

// Table3Row returns (N_1(j), N_2(j)) for Dir_2Tree_2, plus the paper's
// closed forms (j, j(j+1)/2) for cross-checking.
func Table3Row(j int) (n1, n2, closed1, closed2 int64) {
	n1 = N(1, j)
	n2 = N(2, j)
	closed1 = int64(j)
	closed2 = int64(j) * int64(j+1) / 2
	return
}

// Table4 returns the rows of the paper's Table 4 for levels 3..12:
// level, Dir_2Tree_2, Dir_4Tree_2, perfect binary tree.
func Table4() [][4]int64 {
	var rows [][4]int64
	for level := 3; level <= 12; level++ {
		rows = append(rows, [4]int64{
			int64(level),
			MaxNodes(2, level),
			MaxNodes(4, level),
			BinaryTreeNodes(level),
		})
	}
	return rows
}

// PaperTable4 holds the values printed in the paper for comparison in
// EXPERIMENTS.md. Note the paper's Dir_4Tree_2 column contains at least
// one typographical inconsistency (level 6 prints 99); see the
// EXPERIMENTS.md discussion.
var PaperTable4 = map[int][3]int64{
	3:  {9, 16, 7},
	4:  {14, 43, 15},
	5:  {20, 75, 31},
	6:  {27, 99, 63},
	7:  {35, 163, 127},
	8:  {44, 256, 255},
	9:  {54, 386, 511},
	10: {65, 562, 1023},
	11: {77, 794, 2047},
	12: {90, 1093, 4095},
}
