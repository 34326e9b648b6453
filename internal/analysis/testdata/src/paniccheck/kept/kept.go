// Package kept is the clean half of the paniccheck rule 2 golden: a
// chunkJob.run that keeps its deferred recover wrapper draws no
// finding.
package kept

type chunkJob struct {
	fn  func()
	err any
}

func (j *chunkJob) run() {
	defer func() {
		if p := recover(); p != nil {
			j.err = p
		}
	}()
	j.fn()
}
