#include "util/durable_file.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include "util/fault.hh"

namespace dvp
{

namespace
{

std::string
errnoMessage(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

} // namespace

size_t
writeFully(int fd, const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    size_t done = 0;
    while (done < n) {
        size_t admitted = FaultInjector::global().admit(n - done);
        if (admitted == 0)
            return done; // injected crash: stop writing here
        ssize_t w = ::write(fd, p + done, admitted);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return done;
        }
        done += static_cast<size_t>(w);
        if (static_cast<size_t>(w) < admitted &&
            FaultInjector::global().tripped())
            return done;
    }
    return done;
}

std::string
atomicWriteFile(const std::string &path, const std::string &bytes,
                bool do_fsync)
{
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return errnoMessage("open '" + tmp + "'");
    if (writeFully(fd, bytes.data(), bytes.size()) != bytes.size()) {
        std::string err = FaultInjector::global().tripped()
                              ? "injected fault writing '" + tmp + "'"
                              : errnoMessage("write '" + tmp + "'");
        ::close(fd);
        ::unlink(tmp.c_str());
        return err;
    }
    if (do_fsync && ::fsync(fd) != 0) {
        std::string err = errnoMessage("fsync '" + tmp + "'");
        ::close(fd);
        ::unlink(tmp.c_str());
        return err;
    }
    if (::close(fd) != 0)
        return errnoMessage("close '" + tmp + "'");
    // The injector also gates the rename itself: a budget that runs
    // out exactly here models a crash after the temp file is complete
    // but before it was swapped in — the old file must survive.
    if (FaultInjector::global().admit(1) == 0) {
        ::unlink(tmp.c_str());
        return "injected fault before renaming '" + tmp + "'";
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        std::string err = errnoMessage("rename '" + tmp + "'");
        ::unlink(tmp.c_str());
        return err;
    }
    if (do_fsync) {
        size_t slash = path.find_last_of('/');
        std::string dir = slash == std::string::npos
                              ? "."
                              : path.substr(0, slash);
        std::string err = fsyncDir(dir);
        if (!err.empty())
            return err;
    }
    return "";
}

std::string
fsyncDir(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return errnoMessage("open dir '" + dir + "'");
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
        return errnoMessage("fsync dir '" + dir + "'");
    return "";
}

std::string
readWholeFile(const std::string &path, std::string &out)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return errnoMessage("open '" + path + "'");
    out.clear();
    char buf[1 << 16];
    for (;;) {
        ssize_t r = ::read(fd, buf, sizeof buf);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            std::string err = errnoMessage("read '" + path + "'");
            ::close(fd);
            return err;
        }
        if (r == 0)
            break;
        out.append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return "";
}

int
formatVersion(const std::string &bytes, const char *prefix)
{
    size_t n = std::strlen(prefix);
    if (bytes.size() <= n || bytes.compare(0, n, prefix) != 0)
        return 0;
    char d = bytes[n];
    return d >= '1' && d <= '9' ? d - '0' : 0;
}

std::string
newerFormatError(const char *kind, int found, int reads)
{
    return std::string(kind) + " format v" + std::to_string(found) +
           ", this binary reads ≤ v" + std::to_string(reads);
}

} // namespace dvp
