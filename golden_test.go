package quasaq

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

// The root worlds' decisions and observed QoS are pinned across commits:
// testdata/golden.txt holds one "name sha256" line per pinned fingerprint,
// and `go test . -update` rewrites the lines of the tests that ran.
//
// The golden-file helpers below repeat those in
// internal/experiments/determinism_test.go. Test files cannot be imported
// across packages, so sharing them would take a non-test package that only
// tests reach, which this module does not keep.

var update = flag.Bool("update", false, "rewrite testdata/golden.txt with the current fingerprint digests")

const goldenPath = "testdata/golden.txt"

// checkGolden compares the digest of a fingerprint with its line in
// golden.txt, or rewrites that line under -update.
func checkGolden(t *testing.T, name, fingerprint string) {
	t.Helper()
	sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprint)))
	golden, err := readGolden()
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	if *update {
		golden[name] = sum
		if err := writeGolden(golden); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := golden[name]
	if !ok {
		t.Fatalf("%s: no line in %s (run go test . -update)", name, goldenPath)
	}
	if sum != want {
		t.Fatalf("%s: fingerprint digest %s, %s has %s (a deliberate change reruns with -update and says why)\n%s",
			name, sum, goldenPath, want, fingerprint)
	}
}

func readGolden() (map[string]string, error) {
	golden := map[string]string{}
	f, err := os.Open(goldenPath)
	if err != nil {
		return golden, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", goldenPath, sc.Text())
		}
		golden[fields[0]] = fields[1]
	}
	return golden, sc.Err()
}

func writeGolden(golden map[string]string) error {
	names := make([]string, 0, len(golden))
	for name := range golden {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, golden[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, []byte(b.String()), 0o644)
}
