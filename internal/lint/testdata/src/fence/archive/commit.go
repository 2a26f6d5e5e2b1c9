package archive

import "os"

// commit is the file the commit-seam row exempts.
func commit(tmp, path string) error { return os.Rename(tmp, path) }
