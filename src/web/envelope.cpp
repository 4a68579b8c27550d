#include "web/envelope.hpp"

namespace cnn2fpga::web {

HttpResponse api_error(int status, const std::string& code, const std::string& message,
                       const std::string& detail) {
  json::Object error;
  error["code"] = code;
  error["message"] = message;
  if (detail.empty()) {
    error["detail"] = nullptr;
  } else {
    error["detail"] = detail;
  }
  json::Object body;
  body["error"] = std::move(error);
  return {status, "application/json", json::Value(std::move(body)).dump(), {}};
}

HttpResponse api_ok(json::Object body) {
  return {200, "application/json", json::Value(std::move(body)).dump(), {}};
}

const char* status_code_slug(int status) {
  switch (status) {
    case 400: return "bad_request";
    case 404: return "not_found";
    case 405: return "method_not_allowed";
    case 408: return "timeout";
    case 410: return "gone";
    case 413: return "payload_too_large";
    case 429: return "overloaded";
    case 500: return "internal";
    case 501: return "not_implemented";
    case 503: return "unavailable";
    case 504: return "deadline_exceeded";
    default: return "error";
  }
}

void route_api(HttpServer& server, const std::string& method, const std::string& suffix,
               Handler handler) {
  const std::string v1_path = std::string(kApiPrefix) + "/" + suffix;
  server.route(method, v1_path, std::move(handler));
  // Retired pre-versioning alias: 410 with the successor pointer. Handlers
  // never run here — the tombstone exists so a stale client gets a precise
  // migration error instead of a generic 404.
  server.route(method, "/api/" + suffix, [v1_path](const HttpRequest&) {
    HttpResponse response =
        api_error(410, "gone",
                  "the unversioned /api/... routes were retired; use " + v1_path);
    response.headers["Link"] = "<" + v1_path + ">; rel=\"successor-version\"";
    return response;
  });
}

}  // namespace cnn2fpga::web
