#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "bench.h"

extern char** environ;

namespace minerule::bench {
namespace {

std::string& Program() {
  static std::string program;
  return program;
}

/// Sort, then hash, 64Ki integers; returns a checksum so the work stays
/// observable.
uint64_t Kernel() {
  SplitMix64 rng{12345};
  std::vector<uint64_t> keys(1 << 16);
  for (uint64_t& key : keys) key = rng.Next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint64_t> buckets;
  for (size_t i = 0; i < keys.size(); ++i) buckets[keys[i] >> 44] += i;
  return buckets.size();
}

}  // namespace

void HostCalibration::SetProgram(std::string path) {
  Program() = std::move(path);
}

int HostCalibration::RunKernel() {
  // One kernel per hardware thread at once, as a statement at the default
  // thread count occupies every one of them.
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<uint64_t> checksums(threads);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&checksums, t] { checksums[t] = Kernel(); });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const double ms = MillisSince(start);
  uint64_t checksum = 0;
  for (uint64_t c : checksums) checksum += c;
  std::printf("%.6f %llu\n", ms, static_cast<unsigned long long>(checksum));
  return 0;
}

Status HostCalibration::Slice() {
  int out[2];
  if (pipe(out) != 0) return Status::Internal("calibration: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::string flag = "--calibrate";
  char* argv[] = {Program().data(), flag.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, Program().c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  if (spawned == 0) {
    char buf[128];
    ssize_t n = 0;
    while ((n = read(out[0], buf, sizeof(buf))) > 0) text.append(buf, n);
  }
  close(out[0]);
  int wait_status = 0;
  if (spawned != 0 || waitpid(pid, &wait_status, 0) != pid ||
      !WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    return Status::Internal("calibration: cannot run " + Program() +
                            " --calibrate");
  }
  char* end = nullptr;
  const double ms = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !(ms > 0)) {
    return Status::Internal("calibration: unexpected output '" + text + "'");
  }
  slices_.push_back(ms);
  return Status::OK();
}

double HostCalibration::FactorAround(size_t i) const {
  const size_t begin = i == 0 ? 0 : i - 1;
  const size_t end = std::min(slices_.size(), i + 3);
  if (begin >= end) return Factor();
  return kReferenceSliceMs /
         Percentile({slices_.begin() + begin, slices_.begin() + end}, 0.5);
}

double HostCalibration::Factor() const {
  return slices_.empty() ? 1.0 : kReferenceSliceMs / MedianSliceMs();
}

double HostCalibration::MedianSliceMs() const {
  return Percentile(slices_, 0.5);
}

}  // namespace minerule::bench
