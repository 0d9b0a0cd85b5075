package pipeline

// MaxAnalyzeBody exposes the POST /analyze body bound to the HTTP tests.
const MaxAnalyzeBody = maxAnalyzeBody
