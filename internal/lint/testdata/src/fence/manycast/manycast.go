// Package manycast is the fence corpus for the probe-train row: a method
// value or an interface method is a use of the name, a comment naming
// ProbeAnycast or a string is not.
package manycast

import "github.com/laces-project/laces/internal/netsim"

func train(w *netsim.World) any {
	return w.ProbeAnycast // want `one probe train: name ProbeAnycast — a stage probes a whole target`
}

var s = "w.ProbeUnicast(vp, tg)"

type prober interface {
	ProbeUnicast() // want `one probe train: name ProbeUnicast`
}

var fan = (*netsim.World).UnicastFan
