package gp

import (
	"sync"

	"autrascale/internal/mat"
)

// A fleet runs thousands of controllers, each of which needs prediction
// scratch only for the few milliseconds a planning session is active.
// Giving every controller (and every acquisition-sweep goroutine) its
// own long-lived Workspace wastes memory and still allocates on first
// use; a process-wide pool lets the whole fleet's steady-state ticks
// reuse a handful of warm buffers instead.
var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace returns a Workspace from the shared pool, warm when one
// was returned before. Callers must hand it back with PutWorkspace when
// the sweep ends; a Workspace is single-goroutine property in between.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// A fit's n×n work matrices — FitAuto's squared distances, unit-variance
// kernel values and Gram matrix, Fit's Gram matrix — plus FitAuto's solve
// buffers and its two candidate factors are garbage the moment the fit
// returns. fitScratchPool recycles them across fits; only the winning
// factor, its weights and the inputs escape into the Regressor.
type fitScratch struct {
	d2, shape, g     mat.Matrix
	alpha, bestAlpha []float64
	chol             [2]mat.Cholesky
}

var fitScratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

func getFitScratch() *fitScratch { return fitScratchPool.Get().(*fitScratch) }

// PutWorkspace returns ws to the shared pool. ws must not be used after.
// Buffers keep their capacity, so the next GetWorkspace on a similarly
// sized model allocates nothing.
func PutWorkspace(ws *Workspace) {
	if ws != nil {
		workspacePool.Put(ws)
	}
}
