package dsprof_test

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMain removes the directories that tests and benchmarks share
// through a sync.Once, which no single test can own with t.TempDir: the
// golden experiment pair (goldenPair) and BenchmarkShardedReduce's
// synthetic experiment, each made under the OS temp dir at most once
// per process.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range []string{goldenDirA, shardedBenchDir} {
		if dir != "" {
			os.RemoveAll(filepath.Dir(dir))
		}
	}
	os.Exit(code)
}
