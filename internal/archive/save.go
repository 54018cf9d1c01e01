package archive

import (
	"os"
	"path/filepath"
)

// Save writes the archive to path atomically: WriteTo into the sibling
// path+".tmp", which is synced, closed and renamed over path before the
// directory itself is synced. A crash at any point leaves either the
// previous file or the new one at path, never a torn one; a crash
// mid-save may leave path+".tmp" beside it, which the next Save
// truncates and renames away, and any error removes it. Saves to one
// path must not overlap: they share the sibling.
func (a *Archive) Save(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// The mode passed the umask, and a leftover keeps its own; a
	// recording is read by other tools.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if _, err = a.WriteTo(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
