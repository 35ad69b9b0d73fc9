package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current build")

var (
	wallTimeRe    = regexp.MustCompile(`exploration wall time: [0-9.]+s`)
	coDesignRe    = regexp.MustCompile(`platform designs \([0-9.]+ms,`)
	streamBytesRe = regexp.MustCompile(`[0-9]+KB of streams`)
)

// normalizeGolden masks the parts of the report that are not part of
// the exploration's answer: the exploration wall time, the co-design
// sweep's elapsed time, the temporary cache path and the encoded size of
// the saved streams (a property of the stream encoding, not of the
// results). Every count and figure of the report stays pinned.
func normalizeGolden(out, cachePath string) string {
	out = wallTimeRe.ReplaceAllString(out, "exploration wall time: <t>s")
	out = coDesignRe.ReplaceAllString(out, "platform designs (<t>ms,")
	out = streamBytesRe.ReplaceAllString(out, "<n>KB of streams")
	if cachePath != "" {
		out = strings.ReplaceAll(out, cachePath, "<cache>")
	}
	return out
}

// TestCLIGolden pins the end-to-end stdout of the paper's four apps byte
// for byte across the CLI's whole-run routes: plain, a cold and a warm
// -replay-cache round trip, and the -platforms co-design sweep. Rerun
// with -update-golden only when a report change is intended.
func TestCLIGolden(t *testing.T) {
	modes := []string{"plain", "cold", "warm", "platforms"}
	for _, app := range []string{"Route", "URL", "IPchains", "DRR"} {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			cache := filepath.Join(t.TempDir(), "run.replay")
			for _, mode := range modes {
				args := []string{"-app", app, "-packets", "300"}
				switch mode {
				case "cold", "warm":
					args = append(args, "-replay-cache", cache)
				case "platforms":
					args = append(args, "-platforms", "all")
				}
				out, err := childExplore(args...).Output()
				if err != nil {
					t.Fatalf("%s %s: %v", app, mode, err)
				}
				got := normalizeGolden(string(out), cache)
				path := filepath.Join("testdata", "golden", app+"_"+mode+".txt")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s %s: stdout differs from %s\n--- got ---\n%s", app, mode, path, got)
				}
			}
		})
	}
}
