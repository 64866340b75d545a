package doccheck

import (
	"os"
	"path/filepath"
	"strings"
)

// goSources returns the slash-separated paths, relative to root, of
// every non-test Go file under root. It is the one walk the gates share:
// it never enters .git, the benchmark's .bench_build output or a
// testdata directory, nor the directories (relative to root) in skip.
func goSources(root string, skip ...string) ([]string, error) {
	skipped := map[string]bool{".git": true, ".bench_build": true}
	for _, s := range skip {
		skipped[s] = true
	}
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if skipped[rel] || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go") {
			out = append(out, rel)
		}
		return nil
	})
	return out, err
}
