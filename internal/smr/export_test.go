package smr

// RetainSlots exposes the retain window to the external test package.
const RetainSlots = retainSlots
