// Package api is the fence corpus for the rows scoped to internal/api. It
// loads under the real package's import path, so the rows fire on it as
// they would on the package itself.
package api

import (
	"net/http"

	"github.com/laces-project/laces/internal/core"
	m "github.com/laces-project/laces/internal/gcdmeas" // want `one census day: imports internal/gcdmeas`
)

// A comment naming http.ResponseWriter, core.NewPipeline( or gcdmeas.Run(
// trips nothing, and neither does a string.
var note = "w http.ResponseWriter; core.NewPipeline(w, c); gcdmeas.Run("

var (
	newPipeline = core.NewPipeline
	again       = core.NewPipeline // want `one census day: use 2 of internal/core.NewPipeline, at most 1`
)

var run = m.Run // want `one census day: internal/gcdmeas.Run — the §4.3 protocol split`

func handler(w http.ResponseWriter, _ *http.Request) { // want `one response path: net/http.ResponseWriter — respond.go`
	w.WriteHeader(http.StatusOK) // want `one response path: net/http.ResponseWriter.WriteHeader`
}

type wrapped struct {
	http.ResponseWriter // want `one response path: net/http.ResponseWriter`
}

func promoted(w wrapped) {
	w.WriteHeader(http.StatusTeapot) // want `one response path: net/http.ResponseWriter.WriteHeader`
}
