package archive

import (
	"os"
	"path/filepath"
)

// Save writes the archive to path atomically: WriteTo into a temporary
// file in path's directory, which is synced, closed and renamed over
// path before the directory itself is synced. A crash at any point
// leaves either the previous file or the new one at path, never a torn
// one; the temporary file is removed on any error.
func (a *Archive) Save(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file 0600; a recording is read by other tools.
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
