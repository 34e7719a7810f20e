#include "durability/manifest.hh"

#include <cstring>

#include "net/wire.hh"
#include "util/durable_file.hh"

namespace dvp::durability
{

namespace
{
constexpr char kManifestMagic[8] = {'D', 'V', 'P', 'M', 'A', 'N',
                                    '1', '\0'};
constexpr int kManifestVersion = kManifestMagic[6] - '0';
} // namespace

std::string
encodeManifest(const Manifest &m)
{
    net::Writer w;
    std::string out(kManifestMagic, 8);
    w.u64(m.seq);
    w.str(m.snapshotFile);
    w.u64(m.snapshotLsn);
    w.u64(m.epoch);
    w.u32(static_cast<uint32_t>(m.segments.size()));
    for (const auto &s : m.segments)
        w.str(s);
    out += w.bytes();
    uint32_t crc = net::crc32(out.data(), out.size());
    out.append(reinterpret_cast<const char *>(&crc), 4);
    return out;
}

std::string
decodeManifest(const std::string &bytes, Manifest &out)
{
    int version = formatVersion(bytes, "DVPMAN");
    if (version > kManifestVersion)
        return newerFormatError("manifest", version, kManifestVersion);
    if (bytes.size() < 12 ||
        std::memcmp(bytes.data(), kManifestMagic, 8) != 0)
        return "manifest: bad magic";
    uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + bytes.size() - 4, 4);
    if (net::crc32(bytes.data(), bytes.size() - 4) != stored)
        return "manifest: CRC mismatch";
    net::Reader r(bytes.data() + 8, bytes.size() - 12);
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
