#ifndef HIERGAT_NN_INTROSPECTION_H_
#define HIERGAT_NN_INTROSPECTION_H_

namespace hiergat {

// Attention-introspection switch.
//
// Several modules keep a snapshot of their latest attention weights in a
// `mutable` member so visualizations (Figure 9, InspectAttention) can
// read them after a forward pass. Those writes are harmless on a single
// thread but are data races when the inference engine scores pairs from
// a thread pool, and they cost time on every forward even when nobody
// reads them. The flag below is thread-local: each engine chunk turns
// recording off for its own forwards and restores the thread's previous
// value after, so introspection outside the engine is unaffected.

namespace internal_introspection {
inline thread_local bool g_record_attention = true;
}  // namespace internal_introspection

/// True when attention snapshots should be recorded on this thread.
inline bool AttentionRecordingEnabled() {
  return internal_introspection::g_record_attention;
}

/// Sets the flag for the current thread; returns the previous value.
inline bool SetAttentionRecording(bool enabled) {
  const bool previous = internal_introspection::g_record_attention;
  internal_introspection::g_record_attention = enabled;
  return previous;
}

/// RAII scope for temporarily toggling recording on the current thread.
class AttentionRecordingGuard {
 public:
  explicit AttentionRecordingGuard(bool enabled)
      : previous_(SetAttentionRecording(enabled)) {}
  ~AttentionRecordingGuard() { SetAttentionRecording(previous_); }
  AttentionRecordingGuard(const AttentionRecordingGuard&) = delete;
  AttentionRecordingGuard& operator=(const AttentionRecordingGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace hiergat

#endif  // HIERGAT_NN_INTROSPECTION_H_
