// Tests for the simulated cloud services: the Google Documents protocol,
// Bespin file storage, Buzzword XML documents, and the XML utilities.

#include <gtest/gtest.h>

#include "privedit/cloud/file_servers.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/cloud/xml.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/enc/audit_record.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::cloud {
namespace {

net::HttpRequest doc_post(const std::string& doc_id, const FormData& form) {
  return net::HttpRequest::post_form("/Doc?docID=" + percent_encode(doc_id),
                                     form.encode());
}

FormData form_of(const net::HttpResponse& resp) {
  return FormData::parse(resp.body);
}

TEST(GDocsServer, CreateOpenSaveCycle) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  auto resp = server.handle(doc_post("d1", create));
  EXPECT_EQ(resp.status, 201);

  FormData save;
  save.add("session", "1");
  save.add("rev", "0");
  save.add("docContents", "hello world");
  resp = server.handle(doc_post("d1", save));
  EXPECT_TRUE(resp.ok());
  EXPECT_TRUE(form_of(resp).contains("contentFromServerHash"));
  EXPECT_EQ(server.raw_content("d1"), "hello world");

  FormData open;
  open.add("cmd", "open");
  resp = server.handle(doc_post("d1", open));
  EXPECT_EQ(form_of(resp).get("content"), "hello world");
  EXPECT_EQ(form_of(resp).get("rev"), "1");
}

TEST(GDocsServer, DeltaUpdatesContent) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData save;
  save.add("session", "1");
  save.add("rev", "0");
  save.add("docContents", "abcdefg");
  server.handle(doc_post("d", save));

  // The paper's example: "=2 -3 +uv =2 +w" turns abcdefg into abuvfgw.
  FormData upd;
  upd.add("session", "1");
  upd.add("rev", "1");
  upd.add("delta", "=2\t-3\t+uv\t=2\t+w");
  const auto resp = server.handle(doc_post("d", upd));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(server.raw_content("d"), "abuvfgw");
  EXPECT_EQ(server.counters().delta_saves, 1u);
}

TEST(GDocsServer, MalformedDeltaRejected) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData upd;
  upd.add("session", "1");
  upd.add("rev", "0");
  upd.add("delta", "=999\t-1");  // runs past the (empty) document
  const auto resp = server.handle(doc_post("d", upd));
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(server.raw_content("d"), "");
}

TEST(GDocsServer, StaleRevisionFlagsConflict) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData a;
  a.add("session", "1");
  a.add("rev", "0");
  a.add("delta", "+first");
  server.handle(doc_post("d", a));
  FormData b;  // second writer still at rev 0
  b.add("session", "2");
  b.add("rev", "0");
  b.add("delta", "+second");
  const auto resp = server.handle(doc_post("d", b));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(form_of(resp).get("conflict"), "1");
  EXPECT_EQ(server.counters().conflicts, 1u);
}

TEST(GDocsServer, AckCarriesHashAlwaysContentOnlyWhenStale) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData save;
  save.add("session", "1");
  save.add("rev", "0");
  save.add("docContents", "xyz");
  const auto resp = server.handle(doc_post("d", save));
  const FormData ack = form_of(resp);
  // Happy path: hash only — the full content rides along only when the
  // client needs to reconcile a stale revision.
  EXPECT_FALSE(ack.contains("contentFromServer"));
  EXPECT_EQ(ack.get("contentFromServerHash")->size(), 16u);

  FormData stale;
  stale.add("session", "1");
  stale.add("rev", "0");  // server is at rev 1 now
  stale.add("delta", "+p");
  const auto conflict_resp = server.handle(doc_post("d", stale));
  const FormData conflict_ack = form_of(conflict_resp);
  EXPECT_EQ(conflict_ack.get("contentFromServer"), "pxyz");
  EXPECT_EQ(conflict_ack.get("conflict"), "1");
}

// Anchored cdelta saves: `delta=…&dbase=<size>:<crc32>` is a full-state
// save that applies only to the exact container the anchor names.

FormData anchored_save(const std::string& rev, const std::string& delta_wire,
                       const std::string& base) {
  FormData f;
  f.add("session", "1");
  f.add("rev", rev);
  f.add("delta", delta_wire);
  f.add("dbase", delta::base_anchor(base));
  return f;
}

enc::AuditLink test_link(std::uint64_t rev) {
  enc::AuditLink link;
  link.rev = rev;
  link.crc = 0x1234u;
  link.client = "A";
  link.head = Bytes(32, static_cast<std::uint8_t>(rev));
  return link;
}

TEST(GDocsServer, AnchorMismatchIs412AndMutatesNothing) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  create.add("abase", std::string(64, 'a'));  // roots the audit chain
  server.handle(doc_post("d", create));
  FormData save;
  save.add("session", "1");
  save.add("rev", "0");
  save.add("docContents", "abcdefg");
  save.add("alink", enc::encode_link(test_link(1)));
  ASSERT_TRUE(server.handle(doc_post("d", save)).ok());
  const std::string chain = server.table().find("d")->audit_chain;
  ASSERT_FALSE(chain.empty());
  const std::size_t history = server.history("d").size();

  FormData wrong = anchored_save("1", "=2\t+X", "abcdefX");
  wrong.add("alink", enc::encode_link(test_link(2)));
  const auto resp = server.handle(doc_post("d", wrong));
  EXPECT_EQ(resp.status, 412);
  EXPECT_EQ(form_of(resp).get("rev"), "1");
  EXPECT_TRUE(form_of(resp).contains("contentFromServerHash"));
  EXPECT_FALSE(form_of(resp).contains("areason"));
  EXPECT_EQ(server.counters().anchor_mismatches, 1u);
  EXPECT_EQ(server.raw_content("d"), "abcdefg");
  EXPECT_EQ(server.table().find("d")->rev, 1u);
  EXPECT_EQ(server.history("d").size(), history);
  EXPECT_EQ(server.table().find("d")->audit_chain, chain);

  // The matching anchor applies the same delta as a full-state save.
  FormData right = anchored_save("1", "=2\t+X", "abcdefg");
  right.add("alink", enc::encode_link(test_link(2)));
  ASSERT_TRUE(server.handle(doc_post("d", right)).ok());
  EXPECT_EQ(server.raw_content("d"), "abXcdefg");
  EXPECT_EQ(server.table().find("d")->rev, 2u);
  EXPECT_EQ(server.counters().full_saves, 2u);
  EXPECT_EQ(server.counters().delta_saves, 0u);
  EXPECT_EQ(enc::decode_chain(server.table().find("d")->audit_chain).tip_rev(),
            2u);
}

TEST(GDocsServer, AnchoredSaveOnStaleRevisionAppliesUnderStrictMode) {
  GDocsServer server;
  server.set_strict_revisions(true);
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData save;
  save.add("session", "1");
  save.add("rev", "0");
  save.add("docContents", "hello");
  server.handle(doc_post("d", save));
  FormData keystroke;
  keystroke.add("session", "2");
  keystroke.add("rev", "1");
  keystroke.add("delta", "=5\t+!");
  ASSERT_TRUE(server.handle(doc_post("d", keystroke)).ok());

  // An unanchored delta at the stale rev is a conflict...
  keystroke.set("delta", "+>");
  EXPECT_EQ(server.handle(doc_post("d", keystroke)).status, 409);
  EXPECT_EQ(server.counters().conflicts, 1u);
  // ...but the anchor, not the revision, gates an anchored one: it applies
  // as a full save, flagged stale the way docContents is (content rides
  // the ack), with no conflict.
  const auto resp =
      server.handle(doc_post("d", anchored_save("1", "=6\t+?", "hello!")));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(server.raw_content("d"), "hello!?");
  EXPECT_EQ(form_of(resp).get("rev"), "3");
  EXPECT_EQ(form_of(resp).get("contentFromServer"), "hello!?");
  EXPECT_FALSE(form_of(resp).contains("conflict"));
  EXPECT_EQ(server.counters().conflicts, 1u);
}

// A block delta in the retired PEBD1 copy/add wire: "hello world" ->
// "hello World" as one add command, anchored by both CRC-32s.
constexpr const char* kLegacyBlockDelta =
    "PEBD1;s=11;t=11;sc=0d4a1185;tc=cc8b3e81;A11:hello World;";

TEST(GDocsServer, LegacyBlockDeltaSaveIsUnrecognised) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData save;
  save.add("session", "1");
  save.add("rev", "0");
  save.add("docContents", "hello world");
  server.handle(doc_post("d", save));
  const std::size_t history = server.history("d").size();

  FormData legacy;
  legacy.add("session", "1");
  legacy.add("rev", "1");
  legacy.add("bdelta", kLegacyBlockDelta);
  const auto resp = server.handle(doc_post("d", legacy));
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(server.raw_content("d"), "hello world");
  EXPECT_EQ(server.table().find("d")->rev, 1u);
  EXPECT_EQ(server.history("d").size(), history);
}

TEST(GDocsServer, SyncWithoutPayloadIsRejected) {
  // A sync carrying neither content nor delta — including an old pusher's
  // bdelta= push — must not be read as "adopt the empty document".
  GDocsServer server;
  FormData seed;
  seed.add("cmd", "sync");
  seed.add("rev", "1");
  seed.add("content", "hello world");
  ASSERT_TRUE(server.handle(doc_post("d", seed)).ok());

  FormData bare;
  bare.add("cmd", "sync");
  bare.add("rev", "9");
  FormData legacy = bare;
  legacy.add("bdelta", kLegacyBlockDelta);
  for (const FormData& push : {bare, legacy}) {
    const auto resp = server.handle(doc_post("d", push));
    EXPECT_EQ(resp.status, 400) << push.encode();
    EXPECT_EQ(server.raw_content("d"), "hello world");
    EXPECT_EQ(server.table().find("d")->rev, 1u);
  }
  EXPECT_EQ(server.counters().syncs, 1u);
  // Nor does a payload-less sync create a document.
  EXPECT_EQ(server.handle(doc_post("absent", bare)).status, 400);
  EXPECT_FALSE(server.raw_content("absent").has_value());
}

TEST(GDocsServer, SpellcheckFindsUnknownWords) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData check;
  check.add("cmd", "spellcheck");
  check.add("text", "the quick brown fox zzyzx");
  const auto resp = server.handle(doc_post("d", check));
  const FormData reply = form_of(resp);
  bool found = false;
  for (const auto& [k, v] : reply.fields()) {
    if (k == "misspelled" && v == "zzyzx") found = true;
    EXPECT_NE(v, "quick");  // dictionary words not flagged
  }
  EXPECT_TRUE(found);
}

TEST(GDocsServer, SpellcheckOnCiphertextFlagsEverything) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData check;
  check.add("cmd", "spellcheck");
  check.add("text", "MZXW QQQQ ABCD");  // base32-looking gibberish
  const auto resp = server.handle(doc_post("d", check));
  std::size_t flagged = 0;
  const FormData reply = form_of(resp);
  for (const auto& [k, v] : reply.fields()) {
    if (k == "misspelled") ++flagged;
  }
  EXPECT_EQ(flagged, 3u);  // every "word" is junk to the server
}

TEST(GDocsServer, HistoryRetainsOldVersions) {
  GDocsServer server;
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  FormData s1;
  s1.add("session", "1");
  s1.add("rev", "0");
  s1.add("docContents", "v1");
  server.handle(doc_post("d", s1));
  FormData s2;
  s2.add("session", "1");
  s2.add("rev", "1");
  s2.add("delta", "=2\t+v2");
  server.handle(doc_post("d", s2));
  // The provider kept every version — this is the §I "leaks information
  // about previous versions" surface.
  ASSERT_EQ(server.history("d").size(), 2u);
  EXPECT_EQ(server.history("d")[1], "v1");
}

TEST(GDocsServer, UnknownRequestsRejected) {
  GDocsServer server;
  EXPECT_EQ(server.handle(net::HttpRequest::post_form("/Other", "")).status,
            404);
  FormData junk;
  junk.add("cmd", "selfdestruct");
  EXPECT_EQ(server.handle(doc_post("nope", junk)).status, 404);
  FormData create;
  create.add("cmd", "create");
  server.handle(doc_post("d", create));
  EXPECT_EQ(server.handle(doc_post("d", junk)).status, 400);
  net::HttpRequest no_id = net::HttpRequest::post_form("/Doc", "cmd=create");
  EXPECT_EQ(server.handle(no_id).status, 400);
}

TEST(BespinServer, PutGetDelete) {
  BespinServer server;
  net::HttpRequest put;
  put.method = "PUT";
  put.target = "/file/at/project/main.js";
  put.body = "function f() { return 42; }";
  EXPECT_TRUE(server.handle(put).ok());
  EXPECT_EQ(server.file_count(), 1u);

  net::HttpRequest get;
  get.method = "GET";
  get.target = "/file/at/project/main.js";
  EXPECT_EQ(server.handle(get).body, put.body);

  net::HttpRequest del;
  del.method = "DELETE";
  del.target = "/file/at/project/main.js";
  EXPECT_EQ(server.handle(del).status, 204);
  EXPECT_EQ(server.handle(get).status, 404);
}

TEST(BespinServer, RejectsUnknown) {
  BespinServer server;
  net::HttpRequest bad;
  bad.method = "GET";
  bad.target = "/elsewhere";
  EXPECT_EQ(server.handle(bad).status, 404);
  bad.target = "/file/at/x";
  bad.method = "PATCH";
  EXPECT_EQ(server.handle(bad).status, 400);
}

TEST(Xml, EscapeUnescapeRoundTrip) {
  const std::string nasty = "a<b>&c \"quoted\" 'apos'";
  EXPECT_EQ(xml_unescape(xml_escape(nasty)), nasty);
  EXPECT_EQ(xml_escape("<&>"), "&lt;&amp;&gt;");
  EXPECT_THROW(xml_unescape("&bogus;"), ParseError);
  EXPECT_THROW(xml_unescape("&amp"), ParseError);
}

TEST(Xml, FindTextRuns) {
  const std::string doc =
      "<document><p><textRun style=\"b\">Hello &amp; goodbye</textRun></p>"
      "<p><textRun>second</textRun></p><p><textRun/></p></document>";
  const auto runs = find_text_runs(doc);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].text, "Hello & goodbye");
  EXPECT_EQ(runs[1].text, "second");
  EXPECT_EQ(runs[2].text, "");
}

TEST(Xml, RejectsMalformed) {
  EXPECT_THROW(find_text_runs("<textRun>unterminated"), ParseError);
  EXPECT_THROW(find_text_runs("<textRun"), ParseError);
  EXPECT_THROW(find_text_runs("<textRun><textRun>x</textRun></textRun>"),
               ParseError);
}

TEST(Xml, IgnoresSimilarTagNames) {
  const auto runs = find_text_runs("<textRunner>nope</textRunner>");
  EXPECT_TRUE(runs.empty());
}

TEST(Xml, RewritePreservesStructure) {
  const std::string doc =
      "<document><textRun a=\"1\">alpha</textRun><mid/>"
      "<textRun>beta</textRun></document>";
  const std::string out = rewrite_text_runs(
      doc, [](const std::string& t) { return "[" + t + "]"; });
  EXPECT_EQ(out,
            "<document><textRun a=\"1\">[alpha]</textRun><mid/>"
            "<textRun>[beta]</textRun></document>");
  EXPECT_EQ(extract_text(out), "[alpha][beta]");
}

TEST(BuzzwordServer, PostGetRoundTrip) {
  BuzzwordServer server;
  net::HttpRequest post;
  post.method = "POST";
  post.target = "/doc/report";
  post.body = "<document><textRun>content here</textRun></document>";
  EXPECT_TRUE(server.handle(post).ok());

  net::HttpRequest get;
  get.method = "GET";
  get.target = "/doc/report";
  EXPECT_EQ(server.handle(get).body, post.body);
  EXPECT_EQ(server.raw_document("report"), post.body);
}

TEST(BuzzwordServer, RejectsMalformedXml) {
  BuzzwordServer server;
  net::HttpRequest post;
  post.method = "POST";
  post.target = "/doc/x";
  post.body = "<document><textRun>broken";
  EXPECT_EQ(server.handle(post).status, 400);
}

}  // namespace
}  // namespace privedit::cloud
