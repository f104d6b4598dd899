#include "trace/trace_file.hh"

#include <cstring>
#include <utility>

#include "support/failpoint.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/retry.hh"

namespace rfl::trace
{

namespace
{

constexpr char kFileMagic[8] = {'R', 'F', 'L', 'T', 'R', 'C', '0', '1'};
constexpr uint32_t kVersion = 1;
constexpr uint32_t kChunkMagic = 0x4b4e4843; // "CHNK" little-endian
constexpr uint32_t kEndMagic = 0x444e4543;   // "CEND" little-endian
constexpr size_t kFileHeaderBytes = 16;
constexpr size_t kChunkHeaderBytes = 24;
constexpr size_t kSummaryFields = 12;
constexpr size_t kSummaryBytes = kSummaryFields * 8;

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/** Zigzag so small negative address deltas stay short. */
uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/** @return false on overrun/overflow (corrupt payload). */
bool
getVarint(const uint8_t *p, size_t len, size_t &pos, uint64_t &out)
{
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (pos >= len)
            return false;
        const uint8_t byte = p[pos++];
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            out = v;
            return true;
        }
    }
    return false;
}

/** Lanes of a VecWidth index (0..3 -> 1,2,4,8); mirrors sim::vecLanes
 *  without pulling sim/ into the trace module. */
uint64_t
lanesOfWidthIndex(uint8_t index)
{
    return 1ull << index;
}

/**
 * Fold one decoded record into the chunking-independent summary. Only
 * the planes the record's kind defines are mixed (undefined planes hold
 * garbage by design — see AccessBatch).
 */
void
mixRecord(TraceSummary &s, AccessKind kind, uint16_t core, uint8_t width,
          uint32_t size, uint64_t addr)
{
    ++s.records;
    Fnv1a h;
    h.mix(s.hash)
        .mix(static_cast<uint64_t>(kind))
        .mix(static_cast<uint64_t>(core));
    switch (kind) {
      case AccessKind::Load:
      case AccessKind::Store:
      case AccessKind::StoreNT:
        h.mix(static_cast<uint64_t>(size)).mix(addr);
        s.hash = h.value();
        if (kind == AccessKind::Load)
            ++s.loads;
        else if (kind == AccessKind::Store)
            ++s.stores;
        else
            ++s.ntStores;
        s.memBytes += size;
        if (addr < s.minAddr)
            s.minAddr = addr;
        if (addr + size > s.maxAddr)
            s.maxAddr = addr + size;
        return;
      case AccessKind::Fp: {
        h.mix(static_cast<uint64_t>(width)).mix(addr);
        s.hash = h.value();
        const uint64_t count = addr;
        s.fpOps += count;
        const uint64_t weight =
            (width & AccessBatch::fpFmaFlag) ? 2 : 1;
        s.flops += count * weight *
                   lanesOfWidthIndex(width & AccessBatch::fpWidthMask);
        return;
      }
      case AccessKind::Other:
        h.mix(addr);
        s.hash = h.value();
        s.otherUops += addr;
        return;
    }
}

void
encodeSummary(std::vector<uint8_t> &out, const TraceSummary &s)
{
    putU64(out, s.records);
    putU64(out, s.loads);
    putU64(out, s.stores);
    putU64(out, s.ntStores);
    putU64(out, s.fpOps);
    putU64(out, s.otherUops);
    putU64(out, s.flops);
    putU64(out, s.memBytes);
    putU64(out, s.minAddr);
    putU64(out, s.maxAddr);
    putU64(out, s.flags);
    putU64(out, s.hash);
}

TraceSummary
decodeSummary(const uint8_t *p)
{
    TraceSummary s;
    s.records = getU64(p + 0);
    s.loads = getU64(p + 8);
    s.stores = getU64(p + 16);
    s.ntStores = getU64(p + 24);
    s.fpOps = getU64(p + 32);
    s.otherUops = getU64(p + 40);
    s.flops = getU64(p + 48);
    s.memBytes = getU64(p + 56);
    s.minAddr = getU64(p + 64);
    s.maxAddr = getU64(p + 72);
    s.flags = getU64(p + 80);
    s.hash = getU64(p + 88);
    return s;
}

uint64_t
payloadHash(const std::vector<uint8_t> &payload)
{
    return Fnv1a().mixBytes(payload.data(), payload.size()).value();
}

void
writeChunk(std::FILE *f, const std::string &path, uint32_t magic,
           uint32_t records, const std::vector<uint8_t> &payload)
{
    if (RFL_FAILPOINT("trace.write"))
        fatal("trace: short write to '%s' (injected fault)",
              path.c_str());
    std::vector<uint8_t> header;
    header.reserve(kChunkHeaderBytes);
    putU32(header, magic);
    putU32(header, records);
    putU32(header, static_cast<uint32_t>(payload.size()));
    putU32(header, 0); // reserved
    putU64(header, payloadHash(payload));
    if (std::fwrite(header.data(), 1, header.size(), f) !=
            header.size() ||
        std::fwrite(payload.data(), 1, payload.size(), f) !=
            payload.size()) {
        fatal("trace: short write to '%s'", path.c_str());
    }
}

} // namespace

TraceWriter::TraceWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        fatal("trace: cannot create '%s'", path.c_str());
    uint8_t header[kFileHeaderBytes] = {};
    std::memcpy(header, kFileMagic, sizeof(kFileMagic));
    header[8] = kVersion; // little-endian u32, low byte first
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header))
        fatal("trace: short write to '%s'", path.c_str());
}

TraceWriter::~TraceWriter()
{
    // finish() can throw in service mode (fatal -> exception, plus the
    // trace.write failpoint); a throw escaping a destructor mid-unwind
    // would terminate the process. Swallow it: the half-written file
    // fails chunk validation on the next read, which is the recovery
    // path anyway.
    try {
        finish();
    } catch (...) {
    }
}

void
TraceWriter::append(const AccessBatch &batch)
{
    RFL_ASSERT(!finished_);
    if (batch.empty())
        return;
    scratch_.clear();
    uint64_t prev_addr = 0;
    for (uint32_t i = 0; i < batch.n; ++i) {
        // Strip the same-line hint bit: on-disk kinds are canonical
        // (the hint depends on the recording machine's line size).
        const uint8_t kind_byte = batch.kind[i] & kindValueMask;
        const auto kind = static_cast<AccessKind>(kind_byte);
        scratch_.push_back(kind_byte);
        putVarint(scratch_, batch.core[i]);
        // Planes a kind does not define hold garbage; normalize them to
        // zero before they reach the summary mix.
        uint8_t width = 0;
        uint32_t size = 0;
        switch (kind) {
          case AccessKind::Load:
          case AccessKind::Store:
          case AccessKind::StoreNT:
            size = batch.size[i];
            RFL_ASSERT(size > 0);
            putVarint(scratch_, size);
            putVarint(scratch_,
                      zigzag(static_cast<int64_t>(batch.addr[i] -
                                                  prev_addr)));
            prev_addr = batch.addr[i];
            break;
          case AccessKind::Fp:
            width = batch.width[i];
            scratch_.push_back(width);
            putVarint(scratch_, batch.addr[i]);
            break;
          case AccessKind::Other:
            putVarint(scratch_, batch.addr[i]);
            break;
        }
        mixRecord(summary_, kind, batch.core[i], width, size,
                  batch.addr[i]);
    }
    writeChunk(file_, path_, kChunkMagic, batch.n, scratch_);
}

void
TraceWriter::setDependentAccesses(bool dependent)
{
    RFL_ASSERT(!finished_);
    if (dependent)
        summary_.flags |= TraceSummary::flagDependentAccesses;
    else
        summary_.flags &= ~TraceSummary::flagDependentAccesses;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    scratch_.clear();
    encodeSummary(scratch_, summary_);
    std::FILE *const file = std::exchange(file_, nullptr);
    try {
        writeChunk(file, path_, kEndMagic, 0, scratch_);
    } catch (...) {
        // A failed write still releases the descriptor.
        std::fclose(file);
        throw;
    }
    if (std::fclose(file) != 0)
        fatal("trace: cannot close '%s'", path_.c_str());
}

bool
TraceReader::fail(const std::string &message)
{
    error_ = message;
    return false;
}

bool
TraceReader::open(const std::string &path)
{
    data_.clear();
    chunks_.clear();
    summary_ = TraceSummary{};
    error_.clear();
    cursor_ = 0;

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (RFL_FAILPOINT("trace.read")) {
        if (f)
            std::fclose(f);
        return fail("trace '" + path + "': cannot open (injected fault)");
    }
    if (!f)
        return fail("trace '" + path + "': cannot open");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        return fail("trace '" + path + "': cannot size");
    }
    data_.resize(static_cast<size_t>(size));
    // A short read is the transient flavor of trace trouble (the file
    // exists and sized correctly); retry it before giving up.
    const bool slurped = retryWithBackoff("trace-read", [&] {
        std::fseek(f, 0, SEEK_SET);
        const size_t got =
            data_.empty()
                ? 0
                : std::fread(data_.data(), 1, data_.size(), f);
        return got == data_.size();
    });
    std::fclose(f);
    if (!slurped)
        return fail("trace '" + path + "': short read");

    if (data_.size() < kFileHeaderBytes ||
        std::memcmp(data_.data(), kFileMagic, sizeof(kFileMagic)) != 0)
        return fail("trace '" + path + "': not a trace file (bad magic)");
    const uint32_t version = getU32(data_.data() + 8);
    if (version != kVersion) {
        return fail("trace '" + path + "': unsupported version " +
                    std::to_string(version));
    }

    uint64_t chunk_records = 0;
    bool end_seen = false;
    size_t off = kFileHeaderBytes;
    while (off < data_.size()) {
        if (end_seen)
            return fail("trace '" + path +
                        "': corrupt (data after end marker)");
        if (data_.size() - off < kChunkHeaderBytes)
            return fail("trace '" + path +
                        "': truncated (partial chunk header)");
        const uint8_t *h = data_.data() + off;
        const uint32_t magic = getU32(h);
        const uint32_t records = getU32(h + 4);
        const uint32_t payload_bytes = getU32(h + 8);
        const uint64_t expect_hash = getU64(h + 16);
        if (magic != kChunkMagic && magic != kEndMagic)
            return fail("trace '" + path +
                        "': corrupt (bad chunk magic)");
        const size_t payload_off = off + kChunkHeaderBytes;
        if (data_.size() - payload_off < payload_bytes)
            return fail("trace '" + path +
                        "': truncated (chunk payload cut short)");
        const uint64_t actual_hash =
            Fnv1a()
                .mixBytes(data_.data() + payload_off, payload_bytes)
                .value();
        if (actual_hash != expect_hash)
            return fail("trace '" + path +
                        "': corrupt (chunk hash mismatch)");
        if (magic == kEndMagic) {
            if (records != 0 || payload_bytes != kSummaryBytes)
                return fail("trace '" + path +
                            "': corrupt (malformed end chunk)");
            summary_ = decodeSummary(data_.data() + payload_off);
            end_seen = true;
        } else {
            if (records == 0 || records > AccessBatch::capacity)
                return fail("trace '" + path +
                            "': corrupt (bad chunk record count)");
            chunks_.push_back({payload_off, payload_bytes, records});
            chunk_records += records;
        }
        off = payload_off + payload_bytes;
    }
    if (!end_seen)
        return fail("trace '" + path +
                    "': truncated (missing end marker)");
    if (chunk_records != summary_.records)
        return fail("trace '" + path +
                    "': corrupt (record count mismatch)");
    return true;
}

bool
TraceReader::next(AccessBatch &out)
{
    out.clear();
    if (cursor_ >= chunks_.size())
        return false;
    const ChunkRef &c = chunks_[cursor_++];
    const uint8_t *p = data_.data() + c.payloadOffset;
    const size_t len = c.payloadBytes;
    size_t pos = 0;
    uint64_t prev_addr = 0;
    for (uint32_t i = 0; i < c.records; ++i) {
        if (pos >= len)
            return fail("trace: corrupt chunk (record stream cut short)");
        const uint8_t kind_byte = p[pos++];
        if (kind_byte >= accessKindCount)
            return fail("trace: corrupt chunk (unknown record kind)");
        const auto kind = static_cast<AccessKind>(kind_byte);
        uint64_t core = 0;
        if (!getVarint(p, len, pos, core) || core > 0xffff)
            return fail("trace: corrupt chunk (bad core id)");
        switch (kind) {
          case AccessKind::Load:
          case AccessKind::Store:
          case AccessKind::StoreNT: {
            uint64_t size = 0, delta = 0;
            if (!getVarint(p, len, pos, size) || size == 0 ||
                size > ~uint32_t(0))
                return fail("trace: corrupt chunk (bad access size)");
            if (!getVarint(p, len, pos, delta))
                return fail("trace: corrupt chunk (bad address delta)");
            const uint64_t addr =
                prev_addr + static_cast<uint64_t>(unzigzag(delta));
            prev_addr = addr;
            out.pushMem(kind, static_cast<int>(core), addr,
                        static_cast<uint32_t>(size));
            break;
          }
          case AccessKind::Fp: {
            if (pos >= len)
                return fail("trace: corrupt chunk (missing FP width)");
            const uint8_t width = p[pos++];
            if ((width & AccessBatch::fpWidthMask) > 3)
                return fail("trace: corrupt chunk (bad FP width)");
            uint64_t count = 0;
            if (!getVarint(p, len, pos, count))
                return fail("trace: corrupt chunk (bad FP count)");
            out.pushFp(static_cast<int>(core),
                       width & AccessBatch::fpWidthMask,
                       (width & AccessBatch::fpFmaFlag) != 0, count);
            break;
          }
          case AccessKind::Other: {
            uint64_t count = 0;
            if (!getVarint(p, len, pos, count))
                return fail("trace: corrupt chunk (bad uop count)");
            out.pushOther(static_cast<int>(core), count);
            break;
          }
        }
    }
    if (pos != len)
        return fail("trace: corrupt chunk (trailing payload bytes)");
    return true;
}

} // namespace rfl::trace
