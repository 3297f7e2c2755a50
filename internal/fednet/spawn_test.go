package fednet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"modelnet/internal/fednet"
)

// Two spawned federations run back to back from one process with worker
// profiles on (an mnbench step does this): each must leave its own complete
// set of per-shard files, and the second must leave the first's alone.
func TestSpawnedFederationsKeepTheirProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	fednet.ProfileSpawnedWorkers(filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"))
	defer fednet.ProfileSpawnedWorkers("", "")
	// Earlier tests of this binary may have spawned federations, so the
	// ordinal is whatever it is; the process's first gets the bare names.
	name := regexp.MustCompile(`^(cpu|mem)\.prof(\.fed[0-9]+)?\.shard[01]$`)
	written := func() map[string][]byte {
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !name.MatchString(e.Name()) || len(data) == 0 {
				t.Fatalf("unexpected or empty profile file %q (%d bytes)", e.Name(), len(data))
			}
			files[e.Name()] = data
		}
		return files
	}

	runFederated(t, 2, fednet.DataUDP)
	first := written()
	if len(first) != 4 {
		t.Fatalf("first federation wrote %d files, want cpu+mem for 2 shards", len(first))
	}
	runFederated(t, 2, fednet.DataUDP)
	both := written()
	if len(both) != 8 {
		t.Fatalf("two federations left %d files, want 8", len(both))
	}
	for f, data := range first {
		if !bytes.Equal(both[f], data) {
			t.Fatalf("the second federation rewrote the first's %s", f)
		}
	}
}
