// Package archive is the fence corpus for the commit-seam row: an
// aliased import of os does not hide os.Rename.
package archive

import (
	"os"
	sys "os"
)

var rename = sys.Rename // want `one commit seam: os.Rename — a whole file commits through archive.CommitFile`

func read(path string) ([]byte, error) { return os.ReadFile(path) }

type Archive struct{}

func (a *Archive) SetCacheSize(n int) {} // want `one cache layer: name SetCacheSize`
