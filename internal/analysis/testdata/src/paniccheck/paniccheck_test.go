package paniccheck

// Test files are exempt: the real parallel_robust_test panics inside
// worker bodies on purpose to prove the recover wrapper works, so this
// draws no finding.

func testHelperPanics(n int) {
	runChunks(n, func(w, lo, hi int) {
		panic("tests may panic in workers on purpose")
	})
}
