// Package core is the fence corpus for the rows scoped to internal/core:
// a dot import does not hide gcdmeas.Run.
package core

import . "github.com/laces-project/laces/internal/gcdmeas"

var run = Run // want `one census day: internal/gcdmeas.Run`

var confirm = Confirm
