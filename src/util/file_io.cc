#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>

#include "util/fault_injector.h"

namespace bbsmine {

namespace {

// Composes "<prefix>.<op>" and consults the fault registry. The string is
// only built when a spec is armed, so the production path stays one relaxed
// atomic load.
Status Fault(const char* prefix, const char* op) {
  if (!FaultInjector::Armed()) return Status::Ok();
  return FaultInjector::Hit((std::string(prefix) + "." + op).c_str());
}

Status FaultWrite(const char* prefix, size_t want, size_t* allowed) {
  *allowed = want;
  if (!FaultInjector::Armed()) return Status::Ok();
  return FaultInjector::HitWrite((std::string(prefix) + ".write").c_str(),
                                 want, allowed);
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& context) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("write failed: " + context);
    }
    if (n == 0) return Status::IoError("zero-byte write: " + context);
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Best-effort fsync of the directory containing `path`, making the rename
// itself durable. Failures are ignored: some filesystems reject directory
// fsync with EINVAL, and the file data is already synced.
void SyncParentDirectory(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// Non-atomic fallback for non-regular destinations (character devices,
// FIFOs: /dev/null, /dev/full). rename(2) over a device node would replace
// the node with a regular file, so these are written in place; error
// surfacing (ENOSPC on /dev/full) is unchanged.
Status WriteSpecialFile(const std::string& path, std::string_view data,
                        const WriteFileOptions& options) {
  BBSMINE_RETURN_IF_ERROR(Fault(options.fault_point, "open"));
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return StatusFromErrno("cannot open for writing: " + path);
  }
  size_t allowed = data.size();
  Status injected = FaultWrite(options.fault_point, data.size(), &allowed);
  Status status = WriteAll(fd, data.data(), allowed, path);
  if (status.ok() && !injected.ok()) status = injected;
  ::close(fd);
  return status;
}

}  // namespace

Status WriteBinaryFile(const std::string& path, std::string_view data,
                       const WriteFileOptions& options) {
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return WriteSpecialFile(path, data, options);
  }

  const std::string tmp = path + ".tmp";
  BBSMINE_RETURN_IF_ERROR(Fault(options.fault_point, "open"));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return StatusFromErrno("cannot open for writing: " + tmp);
  }

  // On any failure below: close, unlink the temp file, and report. The
  // destination is untouched.
  Status status;
  size_t allowed = data.size();
  Status injected = FaultWrite(options.fault_point, data.size(), &allowed);
  status = WriteAll(fd, data.data(), allowed, tmp);
  if (status.ok() && !injected.ok()) status = injected;

  if (status.ok() && options.sync) {
    status = Fault(options.fault_point, "fsync");
    if (status.ok() && ::fsync(fd) != 0) {
      status = StatusFromErrno("fsync failed: " + tmp);
    }
  }

  if (::close(fd) != 0 && status.ok()) {
    status = StatusFromErrno("close failed: " + tmp);
  }

  if (status.ok()) {
    status = Fault(options.fault_point, "rename");
    if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
      status = StatusFromErrno("rename failed: " + tmp + " -> " + path);
    }
  }

  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (options.sync) SyncParentDirectory(path);
  return Status::Ok();
}

Result<std::string> ReadBinaryFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return StatusFromErrno("cannot open for reading: " + path);
  }
  // A regular file's size is known up front, so the buffer is sized once
  // and filled in place. The chunked loop after it reads pipes and special
  // files, and whatever was appended after the fstat.
  std::string data;
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    data.resize(static_cast<size_t>(st.st_size));
  }
  auto read_some = [&](char* buf, size_t len) {
    ssize_t n;
    do {
      n = ::read(fd, buf, len);
    } while (n < 0 && errno == EINTR);
    return n;
  };
  size_t done = 0;
  ssize_t n = 0;
  while (done < data.size() &&
         (n = read_some(data.data() + done, data.size() - done)) > 0) {
    done += static_cast<size_t>(n);
  }
  data.resize(done);
  char buf[1 << 16];
  while (n >= 0 && (n = read_some(buf, sizeof(buf))) > 0) {
    data.append(buf, static_cast<size_t>(n));
  }
  int read_errno = errno;
  ::close(fd);
  if (n < 0) {
    return StatusFromErrno(read_errno, "read error: " + path);
  }
  return data;
}

}  // namespace bbsmine
