package wal

// StageLimit exposes the early-write cap to the external test package.
const StageLimit = stageLimit
