package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilesWritesBothFiles(t *testing.T) {
	if f := flag.Lookup("test.cpuprofile"); f != nil && f.Value.String() != "" {
		t.Skip("the test binary is already recording a CPU profile")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: missing or empty (%v)", filepath.Base(path), err)
		}
	}
	// Empty paths: nothing started, nothing written, stop still callable.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// An unwritable path is an error up front, not at stop.
	if _, err := StartProfiles(filepath.Join(dir, "no-such-dir", "cpu.prof"), ""); err == nil {
		t.Fatal("StartProfiles accepted an unwritable CPU profile path")
	}
}
