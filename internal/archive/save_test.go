package archive

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"syscall"
	"testing"
	"time"
)

// killRow is the i-th row the save child appends.
func killRow(i int) Sample {
	return Sample{Timestamp: int64(i) * 1_000_000, Values: []uint64{uint64(i) * 7, ^uint64(0) - uint64(i*i)}}
}

// saveChild appends killRow(0), killRow(1), ... and saves to path after
// every 64th, until it is killed; past a row cap it stops appending and
// waits for the kill.
func saveChild(path string) {
	a, err := New(schema(2), Options{})
	if err != nil {
		os.Exit(2)
	}
	for i := 0; i < 64*512; i++ {
		if err := a.AppendSample(killRow(i)); err != nil {
			os.Exit(3)
		}
		if (i+1)%64 == 0 {
			if err := a.Save(path); err != nil {
				os.Exit(4)
			}
		}
	}
	select {}
}

// TestSaveSurvivesKill: the test binary re-runs itself as a child that
// appends rows and saves every 64 of them, and is SIGKILLed at staggered
// moments, some before its first save and most in the middle of saving.
// After every kill the file is either absent or reads back cleanly, and
// its rows are the first k the child appended, k a multiple of 64: a
// kill never leaves a torn or partly written file. Beside it lies at
// most the one ".tmp" sibling every save writes through, and one more
// Save, by the test, leaves none: leftovers do not accumulate.
func TestSaveSurvivesKill(t *testing.T) {
	if args := flag.Args(); len(args) == 2 && args[0] == "save-child" {
		saveChild(args[1])
		return
	}
	const kills = 20
	absent, replaced, leftover := 0, 0, 0
	for k := 0; k < kills; k++ {
		path := filepath.Join(t.TempDir(), "run.pmlog")
		cmd := exec.Command(os.Args[0], "-test.run=^TestSaveSurvivesKill$", "--", "save-child", path)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(k) * 3 * time.Millisecond)
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("kill %d: child ended on its own: %v", k, err)
		}

		left := dirNames(t, path)
		if slices.Contains(left, "run.pmlog.tmp") {
			leftover++
		}
		if len(left) > 2 || len(left) == 2 && left[1] != "run.pmlog.tmp" {
			t.Fatalf("kill %d: the directory holds %v, want the file and at most its .tmp sibling", k, left)
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			absent++
			saveOnce(t, path, nil)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		a, err := Read(bytes.NewReader(data), Options{})
		if err != nil {
			t.Fatalf("kill %d after %v: saved file does not read: %v", k, time.Duration(k)*3*time.Millisecond, err)
		}
		saveOnce(t, path, a)
		rows, err := a.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 || len(rows)%64 != 0 {
			t.Fatalf("kill %d: saved file holds %d rows, want a positive multiple of 64", k, len(rows))
		}
		for i, r := range rows {
			if want := killRow(i); !reflect.DeepEqual(r, want) {
				t.Fatalf("kill %d: row %d = %+v, want %+v", k, i, r, want)
			}
		}
		if len(rows) > 64 {
			replaced++
		}
	}
	t.Logf("%d kills: %d before the first save, %d after a save had replaced an earlier one, %d left a .tmp sibling",
		kills, absent, replaced, leftover)
	if replaced == 0 {
		t.Fatal("no kill landed after a second save: the replace path went untested")
	}
}

// dirNames lists the directory path lies in, sorted.
func dirNames(t *testing.T, path string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// saveOnce saves a (an empty archive if nil) to path after a kill and
// checks that the save took the killed child's ".tmp" sibling with it.
func saveOnce(t *testing.T, path string, a *Archive) {
	t.Helper()
	if a == nil {
		var err error
		if a, err = New(schema(2), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	if left := dirNames(t, path); !reflect.DeepEqual(left, []string{filepath.Base(path)}) {
		t.Fatalf("after a save the directory holds %v, want only %s", left, filepath.Base(path))
	}
}
