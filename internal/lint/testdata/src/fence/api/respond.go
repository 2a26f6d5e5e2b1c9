package api

import "net/http"

// respond is the file the response-path row exempts.
func respond(w http.ResponseWriter, status int) {
	w.WriteHeader(status)
}
