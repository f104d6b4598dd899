#include "kernels/engine.hh"

#include "trace/trace_file.hh"

namespace rfl::kernels
{

void
SimEngine::materializePending()
{
    // At most 9 records; the callers flush the batch first, so capacity
    // is never an issue (capacity >> 9).
    for (size_t idx = 0; idx < pendingFp_.size(); ++idx) {
        if (pendingFp_[idx]) {
            batch_.pushFp(core_, static_cast<int>(idx >> 1),
                          (idx & 1) != 0, pendingFp_[idx]);
            pendingFp_[idx] = 0;
        }
    }
    if (pendingOther_) {
        batch_.pushOther(core_, pendingOther_);
        pendingOther_ = 0;
    }
}

void
SimEngine::record(const trace::AccessBatch &b)
{
    if (!writer_)
        return;
    try {
        writer_->append(b);
    } catch (...) {
        // A failed write ends the recording and drops the batch, so
        // the destructor's flush neither writes again nor throws.
        writer_ = nullptr;
        batch_.clear();
        throw;
    }
}

void
SimEngine::flush()
{
    if (!batch_.empty()) {
        record(batch_);
        // Simulating in place is safe: the machine's data path never
        // drains batch sources, so nothing re-enters this engine
        // mid-consume.
        machine_.simulateBatch(batch_, core_);
        batch_.clear();
    }
    // Deferred retirements ride in a trailing mini-batch of their own
    // (they commute with everything that preceded them; see emitFp).
    materializePending();
    if (!batch_.empty()) {
        record(batch_);
        machine_.simulateBatch(batch_, core_);
        batch_.clear();
    }
}

void
SimEngine::emitBatch(const trace::AccessBatch &b)
{
    checkCancelled("simulate");
    if (b.empty())
        return;
    if (dispatch_ == Dispatch::Batched) {
        flush();
        record(b);
    }
    machine_.simulateBatch(b, core_);
}

} // namespace rfl::kernels
