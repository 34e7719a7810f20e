#include "durability/manifest.hh"

#include "util/codec.hh"
#include "util/durable_file.hh"

namespace dvp::durability
{

namespace
{
constexpr Envelope kEnvelope{"manifest",
                             "DVPMAN",
                             1,
                             "manifest: bad magic",
                             "manifest: bad magic",
                             "manifest: CRC mismatch"};
} // namespace

std::string
encodeManifest(const Manifest &m)
{
    Writer w;
    kEnvelope.begin(w);
    w.u64(m.seq);
    w.str(m.snapshotFile);
    w.u64(m.snapshotLsn);
    w.u64(m.epoch);
    w.u32(static_cast<uint32_t>(m.segments.size()));
    for (const auto &s : m.segments)
        w.str(s);
    Envelope::seal(w);
    return w.take();
}

std::string
decodeManifest(const std::string &bytes, Manifest &out)
{
    Reader r(nullptr, 0);
    std::string err = kEnvelope.open(bytes, r);
    if (!err.empty())
        return err;
    out.seq = r.u64();
    out.snapshotFile = r.str();
    out.snapshotLsn = r.u64();
    out.epoch = r.u64();
    uint32_t n = r.u32();
    out.segments.clear();
    for (uint32_t i = 0; i < n && r.ok(); ++i)
        out.segments.push_back(r.str());
    if (!r.exhausted())
        return "manifest: truncated or trailing bytes";
    return "";
}

std::string
loadManifest(const std::string &dir, Manifest &out)
{
    std::string bytes;
    std::string err = readWholeFile(dir + "/" + kManifestFile, bytes);
    if (!err.empty())
        return err;
    return decodeManifest(bytes, out);
}

std::string
storeManifest(const std::string &dir, const Manifest &m)
{
    return atomicWriteFile(dir + "/" + kManifestFile,
                           encodeManifest(m));
}

} // namespace dvp::durability
