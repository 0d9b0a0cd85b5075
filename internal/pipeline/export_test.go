package pipeline

// MaxAnalyzeBody and MaxTraceUpload expose the POST /analyze and
// POST /traces body bounds to the HTTP tests.
const (
	MaxAnalyzeBody = maxAnalyzeBody
	MaxTraceUpload = maxTraceUpload
)
