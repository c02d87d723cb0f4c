// privedit — command-line tool over the library.
//
// Lets a user work with encrypted documents from the shell, and run the
// standalone mediating proxy (§III option 1) or a local simulated service
// for experimentation:
//
//   privedit_cli encrypt  --password PW [--mode recb|rpc] [--block N]
//                         [--codec base32|base64|stego] < plain > cipher
//   privedit_cli decrypt  --password PW < cipher > plain
//   privedit_cli edit     --password PW --delta '=5\t-3\t+text'
//                         < cipher > new-cipher
//   privedit_cli inspect  < cipher           (header metadata, no password)
//   privedit_cli rotate   --password PW --new-password PW2 < cipher
//   privedit_cli serve    --port P [--shards N] [--data-dir DIR]
//                         (simulated Google Docs service, sharded front door)
//   privedit_cli proxy    --port P --upstream-port U --password PW
//                         [--delta-saves 1] (full saves ride anchored
//                                            cdeltas)
//   privedit_cli fsck     --stores DIR[,DIR...] [--journal DIR]
//                         [--password PW] [--repair 0|1]
//
// The delta argument accepts "\t" as the op separator so shells stay sane.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "privedit/cloud/shard_router.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/extension/fsck.hpp"
#include "privedit/extension/proxy.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/net/http_server.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"

using namespace privedit;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  const std::string& require(const std::string& name) const {
    const auto it = flags.find(name);
    if (it == flags.end()) {
      throw Error(ErrorCode::kInvalidArgument,
                  "missing required flag --" + name);
    }
    return it->second;
  }

  std::string get(const std::string& name, std::string fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    throw Error(ErrorCode::kInvalidArgument, "no command given");
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw Error(ErrorCode::kInvalidArgument,
                  "unexpected argument '" + std::string(arg) + "'");
    }
    arg.remove_prefix(2);
    if (i + 1 >= argc) {
      throw Error(ErrorCode::kInvalidArgument,
                  "flag --" + std::string(arg) + " needs a value");
    }
    args.flags[std::string(arg)] = argv[++i];
  }
  return args;
}

std::string read_stdin() {
  std::ostringstream buf;
  buf << std::cin.rdbuf();
  return buf.str();
}

enc::SchemeConfig config_from(const Args& args) {
  enc::SchemeConfig config;
  const std::string mode = args.get("mode", "rpc");
  if (mode == "recb") {
    config.mode = enc::Mode::kRecb;
  } else if (mode == "rpc") {
    config.mode = enc::Mode::kRpc;
  } else {
    throw Error(ErrorCode::kInvalidArgument, "unknown --mode " + mode);
  }
  config.block_chars = std::stoul(args.get("block", "8"));
  const std::string codec = args.get("codec", "base32");
  if (codec == "base32") {
    config.codec = enc::Codec::kBase32;
  } else if (codec == "base64") {
    config.codec = enc::Codec::kBase64Url;
  } else if (codec == "stego") {
    config.codec = enc::Codec::kStego;
  } else {
    throw Error(ErrorCode::kInvalidArgument, "unknown --codec " + codec);
  }
  return config;
}

std::string unescape_delta_arg(std::string_view arg) {
  std::string out;
  for (std::size_t i = 0; i < arg.size(); ++i) {
    if (arg[i] == '\\' && i + 1 < arg.size() && arg[i + 1] == 't') {
      out.push_back('\t');
      ++i;
    } else {
      out.push_back(arg[i]);
    }
  }
  return out;
}

int cmd_encrypt(const Args& args) {
  auto session = extension::DocumentSession::create_new(
      args.require("password"), config_from(args), extension::os_rng_factory());
  std::cout << session.encrypt_full(read_stdin());
  return 0;
}

int cmd_decrypt(const Args& args) {
  auto session = extension::DocumentSession::open(
      args.require("password"), read_stdin(), extension::os_rng_factory());
  std::cout << session.plaintext();
  return 0;
}

int cmd_edit(const Args& args) {
  const delta::Delta d =
      delta::Delta::parse(unescape_delta_arg(args.require("delta")));
  auto session = extension::DocumentSession::open(
      args.require("password"), read_stdin(), extension::os_rng_factory());
  session.transform_delta(d);
  std::cout << session.scheme().ciphertext_doc();
  return 0;
}

int cmd_inspect(const Args&) {
  const enc::ContainerReader reader(read_stdin());
  const enc::ContainerHeader& h = reader.header();
  std::fprintf(stderr,
               "mode: %s\nblock chars: %zu\ncodec: %d\nkdf iterations: %u\n"
               "salt: %s\nunits: %zu\nunit width: %zu chars\n",
               enc::mode_name(h.mode).data(), h.block_chars,
               static_cast<int>(h.codec), h.kdf_iterations,
               hex_encode(h.salt).c_str(), reader.unit_count(),
               h.unit_width());
  return 0;
}

int cmd_rotate(const Args& args) {
  auto session = extension::DocumentSession::open(
      args.require("password"), read_stdin(), extension::os_rng_factory());
  auto rotated = extension::rotate_password(
      session, args.require("new-password"), extension::os_rng_factory());
  std::cout << rotated.scheme().ciphertext_doc();
  return 0;
}

int cmd_serve(const Args& args) {
  const std::size_t shards = std::stoul(args.get("shards", "1"));
  if (shards == 0) {
    throw Error(ErrorCode::kInvalidArgument, "--shards needs >= 1");
  }
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < shards; ++i) {
    ids.push_back("s" + std::to_string(i));
  }
  cloud::ShardRouterConfig config;
  config.data_dir = args.get("data-dir", "");
  auto router = std::make_shared<cloud::ShardRouter>(ids, config);
  // ShardRouter::handle is thread-safe (each shard is its own lock
  // domain), so the listener can dispatch without serialize_handler.
  net::HttpServer server(
      static_cast<std::uint16_t>(std::stoul(args.get("port", "0"))),
      [router](const net::HttpRequest& r) { return router->handle(r); });
  std::fprintf(stderr,
               "simulated Google Documents service on 127.0.0.1:%u "
               "(%zu shard%s%s%s)\n",
               server.port(), shards, shards == 1 ? "" : "s",
               config.data_dir.empty() ? "" : ", persisted under ",
               config.data_dir.c_str());
  // Boot-time restore anomalies: stale tenant meta and audit-sidecar
  // records/links dropped while rebuilding from the durable stores.
  std::size_t audit_skipped = 0;
  for (const std::string& id : router->members()) {
    audit_skipped += router->shard_server(id).table().audit_restore_skipped();
  }
  const std::size_t meta_skipped = router->tenants().counters().restore_skipped;
  if (audit_skipped > 0 || meta_skipped > 0) {
    std::fprintf(stderr,
                 "restore: %zu tenant meta record(s) skipped, "
                 "%zu audit record(s)/link(s) dropped\n",
                 meta_skipped, audit_skipped);
  }
  std::fprintf(stderr, "press enter to stop\n");
  std::getchar();
  server.stop();
  const cloud::ShardRouter::Counters rc = router->counters();
  const cloud::TenantAccounts::Counters tc = router->tenants().counters();
  std::fprintf(stderr,
               "served: %zu routed, %zu bad, %zu quota / %zu handoff / "
               "%zu down rejection(s), %zu migration(s) (%zu doc(s)), "
               "%zu charge(s)/%zu release(s)\n",
               rc.routed, rc.bad_requests, rc.quota_rejections,
               rc.handoff_rejections, rc.down_rejections, rc.migrations,
               rc.docs_migrated, tc.charges, tc.releases);
  return 0;
}

std::vector<std::string> split_dirs(const std::string& list) {
  std::vector<std::string> dirs;
  std::istringstream in(list);
  std::string dir;
  while (std::getline(in, dir, ',')) {
    if (!dir.empty()) dirs.push_back(dir);
  }
  if (dirs.empty()) {
    throw Error(ErrorCode::kInvalidArgument, "--stores needs >= 1 directory");
  }
  return dirs;
}

int cmd_fsck(const Args& args) {
  extension::FsckOptions options;
  options.password = args.get("password", "");
  options.journal_dir = args.get("journal", "");
  options.repair = args.get("repair", "1") != "0";
  const extension::FsckResult result =
      extension::run_fsck(split_dirs(args.require("stores")), options);
  std::fputs(extension::format_fsck_result(result).c_str(), stdout);
  if (result.clean_before()) return 0;
  return result.healthy_after() ? 0 : 1;
}

int cmd_proxy(const Args& args) {
  extension::MediatorConfig config;
  config.password = args.require("password");
  config.scheme = config_from(args);
  config.delta_full_saves = args.get("delta-saves", "0") != "0";
  extension::MediatingProxy proxy(
      static_cast<std::uint16_t>(std::stoul(args.get("port", "0"))),
      static_cast<std::uint16_t>(std::stoul(args.require("upstream-port"))),
      std::move(config));
  std::fprintf(stderr, "mediating proxy on 127.0.0.1:%u -> 127.0.0.1:%s\n",
               proxy.port(), args.require("upstream-port").c_str());
  std::fprintf(stderr, "press enter to stop\n");
  std::getchar();
  proxy.stop();
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: privedit_cli <command> [flags]\n"
      "  encrypt  --password PW [--mode recb|rpc] [--block 1..8]\n"
      "           [--codec base32|base64|stego]       stdin -> stdout\n"
      "  decrypt  --password PW                       stdin -> stdout\n"
      "  edit     --password PW --delta '=5\\t+hi'     stdin -> stdout\n"
      "  inspect                                      stdin -> stderr\n"
      "  rotate   --password PW --new-password PW2    stdin -> stdout\n"
      "  serve    [--port P] [--shards N] [--data-dir DIR]\n"
      "  proxy    --upstream-port U --password PW [--port P]\n"
      "           [--delta-saves 1]     full saves ride anchored cdeltas\n"
      "  fsck     --stores DIR[,DIR...] [--journal DIR] [--password PW]\n"
      "           [--repair 0|1]        exit 0 = clean or fully repaired\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "encrypt") return cmd_encrypt(args);
    if (args.command == "decrypt") return cmd_decrypt(args);
    if (args.command == "edit") return cmd_edit(args);
    if (args.command == "inspect") return cmd_inspect(args);
    if (args.command == "rotate") return cmd_rotate(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "proxy") return cmd_proxy(args);
    if (args.command == "fsck") return cmd_fsck(args);
    usage();
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "privedit_cli: %s\n", e.what());
    if (std::string(e.what()).find("invalid_argument") != std::string::npos) {
      usage();
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "privedit_cli: %s\n", e.what());
    return 1;
  }
}
